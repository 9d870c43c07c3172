//! Property-based tests for the Expressive Memory interface.

use ia_xmem::{AtomRegistry, Criticality, DataAttributes, Locality};
use proptest::prelude::*;

proptest! {
    /// Registering disjoint ranges always succeeds and lookups map every
    /// address to exactly the covering atom.
    #[test]
    fn registry_partitions_the_space(sizes in prop::collection::vec(1u64..10_000, 1..30)) {
        let mut reg = AtomRegistry::new();
        let mut base = 0u64;
        let mut ids = Vec::new();
        for &s in &sizes {
            let id = reg.register(base..base + s, DataAttributes::new()).unwrap();
            ids.push((id, base, base + s));
            base += s;
        }
        prop_assert_eq!(reg.len(), sizes.len());
        for &(id, start, end) in &ids {
            prop_assert_eq!(reg.atom_at(start).unwrap().id, id);
            prop_assert_eq!(reg.atom_at(end - 1).unwrap().id, id);
        }
        prop_assert!(reg.atom_at(base).is_none(), "past the last atom");
    }

    /// Any overlapping registration is rejected and leaves the registry
    /// unchanged.
    #[test]
    fn overlaps_never_corrupt(start in 0u64..1000, len in 1u64..500) {
        let mut reg = AtomRegistry::new();
        reg.register(100..600, DataAttributes::new()).unwrap();
        let overlaps = start < 600 && start + len > 100;
        let result = reg.register(start..start + len, DataAttributes::new());
        prop_assert_eq!(result.is_err(), overlaps, "range {}..{}", start, start + len);
        prop_assert!(reg.atom_at(100).is_some());
        prop_assert!(reg.atom_at(599).is_some());
    }

    /// Attribute lookups outside any atom return the all-unknown default.
    #[test]
    fn default_attrs_outside_atoms(addr in 0u64..10_000) {
        let mut reg = AtomRegistry::new();
        reg.register(20_000..30_000, DataAttributes::new().criticality(Criticality::Critical))
            .unwrap();
        let attrs = reg.attrs_at(addr);
        prop_assert_eq!(attrs.criticality, Criticality::Normal);
        prop_assert_eq!(attrs.locality, Locality::Unknown);
    }
}
