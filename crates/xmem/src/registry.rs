//! Atoms and the address→atom registry: X-Mem's mapping from virtual
//! address ranges to semantic attributes.

use std::fmt;
use std::ops::Range;

use crate::attributes::DataAttributes;
use crate::XmemError;

/// Identifier of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u64);

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom#{}", self.0)
    }
}

/// An atom: a contiguous data region with one attribute bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The atom's identifier.
    pub id: AtomId,
    /// Byte address range the atom covers.
    pub range: Range<u64>,
    /// Semantic attributes.
    pub attrs: DataAttributes,
}

impl Atom {
    /// Size of the atom in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.range.end - self.range.start
    }

    /// True if the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// The registry: a non-overlapping interval map from addresses to atoms.
///
/// # Examples
///
/// ```
/// use ia_xmem::{AtomRegistry, Criticality, DataAttributes};
/// let mut reg = AtomRegistry::new();
/// let id = reg.register(
///     0x1000..0x2000,
///     DataAttributes::new().criticality(Criticality::Critical),
/// )?;
/// assert_eq!(reg.atom_at(0x1800).map(|a| a.id), Some(id));
/// assert!(reg.atom_at(0x2000).is_none());
/// # Ok::<(), ia_xmem::XmemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AtomRegistry {
    /// Atoms sorted by range start.
    atoms: Vec<Atom>,
    next_id: u64,
}

impl AtomRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        AtomRegistry::default()
    }

    /// Number of registered atoms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if no atoms are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Registers an atom over `range` with `attrs`, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`XmemError`] if the range is empty or overlaps an existing
    /// atom.
    pub fn register(
        &mut self,
        range: Range<u64>,
        attrs: DataAttributes,
    ) -> Result<AtomId, XmemError> {
        if range.is_empty() {
            return Err(XmemError::invalid("atom range must be non-empty"));
        }
        let pos = self.atoms.partition_point(|a| a.range.start < range.start);
        // Check neighbours for overlap.
        if pos > 0 && self.atoms[pos - 1].range.end > range.start {
            return Err(XmemError::overlap(range.start));
        }
        if pos < self.atoms.len() && self.atoms[pos].range.start < range.end {
            return Err(XmemError::overlap(range.end));
        }
        let id = AtomId(self.next_id);
        self.next_id += 1;
        self.atoms.insert(pos, Atom { id, range, attrs });
        Ok(id)
    }

    /// The atom covering `addr`, if any.
    #[must_use]
    pub fn atom_at(&self, addr: u64) -> Option<&Atom> {
        let pos = self.atoms.partition_point(|a| a.range.start <= addr);
        if pos == 0 {
            return None;
        }
        let atom = &self.atoms[pos - 1];
        atom.range.contains(&addr).then_some(atom)
    }

    /// The attributes at `addr`, defaulting to all-unknown outside atoms
    /// (legacy data has no hints — exactly the X-Mem compatibility story).
    #[must_use]
    pub fn attrs_at(&self, addr: u64) -> DataAttributes {
        self.atom_at(addr)
            .map_or_else(DataAttributes::new, |a| a.attrs)
    }

    /// Iterates over atoms in address order.
    pub fn iter(&self) -> std::slice::Iter<'_, Atom> {
        self.atoms.iter()
    }
}

impl<'a> IntoIterator for &'a AtomRegistry {
    type Item = &'a Atom;
    type IntoIter = std::slice::Iter<'a, Atom>;
    fn into_iter(self) -> Self::IntoIter {
        self.atoms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Criticality;

    #[test]
    fn register_and_lookup() {
        let mut reg = AtomRegistry::new();
        let a = reg.register(0..100, DataAttributes::new()).unwrap();
        let b = reg
            .register(
                100..200,
                DataAttributes::new().criticality(Criticality::Critical),
            )
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.atom_at(0).unwrap().id, a);
        assert_eq!(reg.atom_at(99).unwrap().id, a);
        assert_eq!(reg.atom_at(100).unwrap().id, b);
        assert!(reg.atom_at(200).is_none());
        assert_eq!(reg.attrs_at(150).criticality, Criticality::Critical);
        assert_eq!(
            reg.attrs_at(500).criticality,
            Criticality::Normal,
            "default outside atoms"
        );
    }

    #[test]
    fn overlaps_are_rejected() {
        let mut reg = AtomRegistry::new();
        reg.register(100..200, DataAttributes::new()).unwrap();
        assert!(reg.register(150..250, DataAttributes::new()).is_err());
        assert!(reg.register(50..101, DataAttributes::new()).is_err());
        assert!(reg.register(100..200, DataAttributes::new()).is_err());
        assert!(
            reg.register(0..100, DataAttributes::new()).is_ok(),
            "adjacent is fine"
        );
        assert!(reg.register(200..300, DataAttributes::new()).is_ok());
    }

    #[test]
    fn empty_range_is_rejected() {
        let mut reg = AtomRegistry::new();
        assert!(reg.register(10..10, DataAttributes::new()).is_err());
    }

    #[test]
    fn registry_iterates_in_address_order() {
        let mut reg = AtomRegistry::new();
        reg.register(200..300, DataAttributes::new()).unwrap();
        reg.register(0..100, DataAttributes::new()).unwrap();
        let starts: Vec<u64> = reg.iter().map(|a| a.range.start).collect();
        assert_eq!(starts, vec![0, 200]);
        assert_eq!((&reg).into_iter().count(), 2);
    }

    #[test]
    fn atom_id_displays() {
        assert_eq!(AtomId(7).to_string(), "atom#7");
    }
}
