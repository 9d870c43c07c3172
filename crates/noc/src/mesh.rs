//! 2D mesh geometry and XY dimension-order routing.

use crate::NocError;

/// A node coordinate in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

/// An output port of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Port {
    /// +x.
    East = 0,
    /// −x.
    West = 1,
    /// +y.
    North = 2,
    /// −y.
    South = 3,
}

impl Port {
    /// All ports, in canonical (East, West, North, South) order.
    #[must_use]
    pub fn all() -> [Port; 4] {
        [Port::East, Port::West, Port::North, Port::South]
    }

    /// The port with canonical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[must_use]
    #[inline]
    pub fn from_index(i: u8) -> Port {
        match i {
            0 => Port::East,
            1 => Port::West,
            2 => Port::North,
            3 => Port::South,
            // lint: allow(P002, index > 3 is a table-construction bug, not a runtime input)
            _ => panic!("port index out of range"),
        }
    }
}

/// Number of set bits in a 4-bit port mask, read from a table of
/// nibbles packed into one word: the baseline x86-64 target has no
/// POPCNT instruction, and this needs no loop.
#[inline]
pub(crate) fn port_count(mask: u8) -> usize {
    ((0x4332_3221_3221_2110u64 >> (4 * (mask & 0xF))) & 0xF) as usize
}

/// A small set of ports, packed into one bit per port. A mesh router has
/// at most four, so this is a single byte — the routing hot loops query
/// port sets every cycle and must not allocate or scan.
///
/// Iteration yields ports in canonical (East, West, North, South) order,
/// which is also the order every constructor in this crate inserts them,
/// so replacing the former insertion-ordered array changes no observable
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ports {
    mask: u8,
}

impl Ports {
    /// Number of ports in the set.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        port_count(self.mask)
    }

    /// True when the set holds no ports.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Inserts a port (idempotent).
    #[inline]
    pub fn push(&mut self, p: Port) {
        self.mask |= 1 << (p as u8);
    }

    /// True when `p` is in the set.
    #[must_use]
    #[inline]
    pub fn contains(&self, p: Port) -> bool {
        self.mask & (1 << (p as u8)) != 0
    }

    /// The raw occupancy bits, one per [`Port`] discriminant — a compact
    /// stable encoding of the whole set (checksums, debugging).
    #[must_use]
    #[inline]
    pub fn mask(&self) -> u8 {
        self.mask
    }

    /// The first port in canonical order, if any.
    #[must_use]
    #[inline]
    pub fn first(&self) -> Option<Port> {
        if self.mask == 0 {
            None
        } else {
            Some(Port::from_index(self.mask.trailing_zeros() as u8))
        }
    }

    /// Iterates the ports in canonical order.
    #[inline]
    pub fn iter(&self) -> PortsIter {
        PortsIter { mask: self.mask }
    }

    /// Removes `p` if present.
    #[inline]
    pub fn remove(&mut self, p: Port) {
        self.mask &= !(1 << (p as u8));
    }
}

impl IntoIterator for Ports {
    type Item = Port;
    type IntoIter = PortsIter;
    fn into_iter(self) -> Self::IntoIter {
        PortsIter { mask: self.mask }
    }
}

/// Iterator over a [`Ports`] set, in canonical port order.
#[derive(Debug, Clone)]
pub struct PortsIter {
    mask: u8,
}

impl Iterator for PortsIter {
    type Item = Port;

    #[inline]
    fn next(&mut self) -> Option<Port> {
        if self.mask == 0 {
            return None;
        }
        let i = self.mask.trailing_zeros() as u8;
        self.mask &= self.mask - 1;
        Some(Port::from_index(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.mask.count_ones() as usize;
        (n, Some(n))
    }
}

/// Mesh dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshConfig {
    /// Columns.
    pub width: u16,
    /// Rows.
    pub height: u16,
}

impl MeshConfig {
    /// Creates a mesh configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] if either dimension is below 2.
    pub fn new(width: u16, height: u16) -> Result<Self, NocError> {
        if width < 2 || height < 2 {
            return Err(NocError::invalid("mesh needs at least 2x2 nodes"));
        }
        Ok(MeshConfig { width, height })
    }

    /// Node count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Flat index of a coordinate.
    #[must_use]
    pub fn index(&self, c: Coord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Coordinate of a flat index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nodes()`.
    #[must_use]
    pub fn coord(&self, i: usize) -> Coord {
        assert!(i < self.nodes(), "node index out of range");
        Coord {
            x: (i % self.width as usize) as u16,
            y: (i / self.width as usize) as u16,
        }
    }

    /// The neighbor reached through `port`, if it exists.
    #[must_use]
    pub fn neighbor(&self, c: Coord, port: Port) -> Option<Coord> {
        match port {
            Port::East => (c.x + 1 < self.width).then(|| Coord { x: c.x + 1, y: c.y }),
            Port::West => c.x.checked_sub(1).map(|x| Coord { x, y: c.y }),
            Port::North => (c.y + 1 < self.height).then(|| Coord { x: c.x, y: c.y + 1 }),
            Port::South => c.y.checked_sub(1).map(|y| Coord { x: c.x, y }),
        }
    }

    /// Ports that lead to existing neighbors from `c`.
    #[must_use]
    pub fn valid_ports(&self, c: Coord) -> Ports {
        let mut out = Ports::default();
        for p in Port::all() {
            if self.neighbor(c, p).is_some() {
                out.push(p);
            }
        }
        out
    }

    /// XY dimension-order routing: the productive port toward `dst`
    /// (x first, then y), or `None` if already there.
    #[must_use]
    pub fn xy_route(&self, from: Coord, dst: Coord) -> Option<Port> {
        if from.x < dst.x {
            Some(Port::East)
        } else if from.x > dst.x {
            Some(Port::West)
        } else if from.y < dst.y {
            Some(Port::North)
        } else if from.y > dst.y {
            Some(Port::South)
        } else {
            None
        }
    }

    /// Ports that reduce distance to `dst` (for deflection routing's
    /// preferred set).
    #[must_use]
    pub fn productive_ports(&self, from: Coord, dst: Coord) -> Ports {
        let mut out = Ports::default();
        if from.x < dst.x {
            out.push(Port::East);
        }
        if from.x > dst.x {
            out.push(Port::West);
        }
        if from.y < dst.y {
            out.push(Port::North);
        }
        if from.y > dst.y {
            out.push(Port::South);
        }
        out
    }

    /// Manhattan distance.
    #[must_use]
    pub fn distance(&self, a: Coord, b: Coord) -> u32 {
        u32::from(a.x.abs_diff(b.x)) + u32::from(a.y.abs_diff(b.y))
    }
}

/// Largest node count for which [`RouteTable`] materializes the O(n²)
/// per-(source, destination) tables. Bigger meshes fall back to the
/// arithmetic routing functions, which are exact but slower per lookup.
const QUADRATIC_TABLE_MAX_NODES: usize = 4096;

/// Sentinel for "source equals destination" in the packed XY table.
const XY_LOCAL: u8 = 0xFF;

/// Precomputed routing state for one mesh: flat-index coordinates, valid
/// port masks, neighbor indices, and (for meshes up to
/// 4096 nodes) dense per-(source, destination) XY and productive-port
/// tables. Every accessor returns exactly what the corresponding
/// [`MeshConfig`] arithmetic would — the table is a cache, not a policy
/// change — so simulators built on it stay bit-identical to the
/// arithmetic path.
#[derive(Debug, Clone)]
pub struct RouteTable {
    mesh: MeshConfig,
    coords: Vec<Coord>,
    valid: Vec<Ports>,
    /// `neighbor[node * 4 + port]`; `u32::MAX` when the port exits the mesh.
    neighbor: Vec<u32>,
    /// `xy[src * nodes + dst]`: canonical port index, or [`XY_LOCAL`].
    xy: Option<Vec<u8>>,
    /// `productive[src * nodes + dst]`: ports that shrink the distance.
    productive: Option<Vec<Ports>>,
}

impl RouteTable {
    /// Builds the tables for `mesh`.
    #[must_use]
    pub fn new(mesh: MeshConfig) -> Self {
        let n = mesh.nodes();
        let coords: Vec<Coord> = (0..n).map(|i| mesh.coord(i)).collect();
        let valid: Vec<Ports> = coords.iter().map(|&c| mesh.valid_ports(c)).collect();
        let mut neighbor = vec![u32::MAX; n * 4];
        for (i, &c) in coords.iter().enumerate() {
            for p in Port::all() {
                if let Some(nb) = mesh.neighbor(c, p) {
                    neighbor[i * 4 + p as usize] = mesh.index(nb) as u32;
                }
            }
        }
        let (xy, productive) = if n <= QUADRATIC_TABLE_MAX_NODES {
            let mut xy = vec![XY_LOCAL; n * n];
            let mut productive = vec![Ports::default(); n * n];
            for (s, &from) in coords.iter().enumerate() {
                for (d, &dst) in coords.iter().enumerate() {
                    if let Some(p) = mesh.xy_route(from, dst) {
                        xy[s * n + d] = p as u8;
                    }
                    productive[s * n + d] = mesh.productive_ports(from, dst);
                }
            }
            (Some(xy), Some(productive))
        } else {
            (None, None)
        };
        RouteTable {
            mesh,
            coords,
            valid,
            neighbor,
            xy,
            productive,
        }
    }

    /// The mesh these tables were built for.
    #[must_use]
    pub fn mesh(&self) -> MeshConfig {
        self.mesh
    }

    /// Coordinate of flat index `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    #[inline]
    pub fn coord(&self, node: usize) -> Coord {
        self.coords[node]
    }

    /// Ports that lead to existing neighbors from `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    #[inline]
    pub fn valid_ports(&self, node: usize) -> Ports {
        self.valid[node]
    }

    /// Flat index of the neighbor reached through `port`, if it exists.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    #[inline]
    pub fn neighbor_index(&self, node: usize, port: Port) -> Option<usize> {
        let nb = self.neighbor[node * 4 + port as usize];
        (nb != u32::MAX).then_some(nb as usize)
    }

    /// XY dimension-order route from `src` toward `dst` (flat indices),
    /// or `None` when they coincide.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    #[inline]
    pub fn xy_port(&self, src: usize, dst: usize) -> Option<Port> {
        match &self.xy {
            Some(t) => {
                let p = t[src * self.coords.len() + dst];
                (p != XY_LOCAL).then(|| Port::from_index(p))
            }
            None => self.mesh.xy_route(self.coords[src], self.coords[dst]),
        }
    }

    /// Ports that reduce the distance from `src` to `dst` (flat indices).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    #[inline]
    pub fn productive_ports(&self, src: usize, dst: usize) -> Ports {
        match &self.productive {
            Some(t) => t[src * self.coords.len() + dst],
            None => self
                .mesh
                .productive_ports(self.coords[src], self.coords[dst]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(MeshConfig::new(1, 4).is_err());
        assert!(MeshConfig::new(4, 1).is_err());
        assert!(MeshConfig::new(2, 2).is_ok());
    }

    #[test]
    fn index_coord_roundtrip() {
        let m = MeshConfig::new(4, 3).unwrap();
        for i in 0..m.nodes() {
            assert_eq!(m.index(m.coord(i)), i);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = MeshConfig::new(3, 3).unwrap();
        let corner = Coord { x: 0, y: 0 };
        assert_eq!(m.neighbor(corner, Port::West), None);
        assert_eq!(m.neighbor(corner, Port::South), None);
        assert_eq!(m.neighbor(corner, Port::East), Some(Coord { x: 1, y: 0 }));
        assert_eq!(m.valid_ports(corner).len(), 2);
        let center = Coord { x: 1, y: 1 };
        assert_eq!(m.valid_ports(center).len(), 4);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = MeshConfig::new(4, 4).unwrap();
        let from = Coord { x: 0, y: 0 };
        let dst = Coord { x: 2, y: 3 };
        assert_eq!(m.xy_route(from, dst), Some(Port::East));
        assert_eq!(m.xy_route(Coord { x: 2, y: 0 }, dst), Some(Port::North));
        assert_eq!(m.xy_route(dst, dst), None);
    }

    #[test]
    fn xy_route_always_reaches_destination() {
        let m = MeshConfig::new(5, 5).unwrap();
        let dst = Coord { x: 4, y: 2 };
        let mut cur = Coord { x: 0, y: 4 };
        let mut hops = 0;
        while let Some(p) = m.xy_route(cur, dst) {
            cur = m.neighbor(cur, p).expect("xy route is always valid");
            hops += 1;
            assert!(hops <= 20, "routing loop");
        }
        assert_eq!(cur, dst);
        assert_eq!(hops, m.distance(Coord { x: 0, y: 4 }, dst));
    }

    #[test]
    fn ports_iterate_in_canonical_order_and_dedupe() {
        let mut s = Ports::default();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        s.push(Port::South);
        s.push(Port::East);
        s.push(Port::East);
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), Some(Port::East));
        let got: Vec<Port> = s.iter().collect();
        assert_eq!(got, vec![Port::East, Port::South]);
        s.remove(Port::East);
        assert_eq!(s.first(), Some(Port::South));
        s.remove(Port::East);
        assert_eq!(s.len(), 1);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![Port::South]);
    }

    #[test]
    fn port_count_is_the_popcount_of_every_mask() {
        for mask in 0..16u8 {
            assert_eq!(port_count(mask), mask.count_ones() as usize, "{mask:#06b}");
        }
    }

    #[test]
    fn route_table_matches_arithmetic_everywhere() {
        for (w, h) in [(2, 2), (4, 3), (8, 8)] {
            let m = MeshConfig::new(w, h).unwrap();
            let t = RouteTable::new(m);
            for s in 0..m.nodes() {
                let from = m.coord(s);
                assert_eq!(t.coord(s), from);
                assert_eq!(t.valid_ports(s), m.valid_ports(from));
                for p in Port::all() {
                    assert_eq!(
                        t.neighbor_index(s, p),
                        m.neighbor(from, p).map(|c| m.index(c))
                    );
                }
                for d in 0..m.nodes() {
                    let dst = m.coord(d);
                    assert_eq!(t.xy_port(s, d), m.xy_route(from, dst), "{s}->{d}");
                    assert_eq!(t.productive_ports(s, d), m.productive_ports(from, dst));
                }
            }
        }
    }

    #[test]
    fn productive_ports_shrink_distance() {
        let m = MeshConfig::new(4, 4).unwrap();
        let from = Coord { x: 1, y: 1 };
        let dst = Coord { x: 3, y: 0 };
        for p in m.productive_ports(from, dst) {
            let next = m.neighbor(from, p).expect("productive implies valid");
            assert!(m.distance(next, dst) < m.distance(from, dst));
        }
    }
}
