//! Periodic supercells with O(1) site indexing.

use crate::neighbors::NeighborTable;
use crate::structure::Structure;
use crate::SiteId;

/// An `Lx × Ly × Lz` periodic repetition of a [`Structure`].
///
/// Sites are indexed `site = (((z * Ly + y) * Lx) + x) * B + b` where `B` is
/// the number of basis atoms, so iteration over sites is cache-friendly and
/// the cell/basis decomposition is O(1) arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct Supercell {
    structure: Structure,
    dims: [usize; 3],
    num_sites: usize,
}

impl Supercell {
    /// Build a supercell of `dims` conventional cells.
    ///
    /// # Panics
    /// Panics if any dimension is zero — a zero-sized supercell is a
    /// programming error, not a runtime condition.
    pub fn new(structure: Structure, dims: [usize; 3]) -> Self {
        assert!(
            dims.iter().all(|&d| d > 0),
            "supercell dimensions must be nonzero, got {dims:?}"
        );
        let num_sites = dims[0] * dims[1] * dims[2] * structure.atoms_per_cell();
        assert!(
            num_sites <= u32::MAX as usize,
            "supercell too large for u32 site ids"
        );
        Supercell {
            structure,
            dims,
            num_sites,
        }
    }

    /// Cubic `L × L × L` supercell.
    pub fn cubic(structure: Structure, l: usize) -> Self {
        Supercell::new(structure, [l, l, l])
    }

    /// The underlying crystal structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Supercell dimensions in conventional cells.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of lattice sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Number of basis atoms per conventional cell.
    pub fn atoms_per_cell(&self) -> usize {
        self.structure.atoms_per_cell()
    }

    /// Site id from (cell x, cell y, cell z, basis index), wrapping
    /// coordinates periodically.
    #[inline]
    pub fn site_at(&self, x: isize, y: isize, z: isize, b: usize) -> SiteId {
        let [lx, ly, lz] = self.dims;
        let xm = x.rem_euclid(lx as isize) as usize;
        let ym = y.rem_euclid(ly as isize) as usize;
        let zm = z.rem_euclid(lz as isize) as usize;
        ((((zm * ly + ym) * lx + xm) * self.atoms_per_cell()) + b) as SiteId
    }

    /// Decompose a site id into (cell x, cell y, cell z, basis index).
    #[inline]
    pub fn decompose(&self, site: SiteId) -> (usize, usize, usize, usize) {
        let b_count = self.atoms_per_cell();
        let s = site as usize;
        let b = s % b_count;
        let cell = s / b_count;
        let [lx, ly, _lz] = self.dims;
        let x = cell % lx;
        let y = (cell / lx) % ly;
        let z = cell / (lx * ly);
        (x, y, z, b)
    }

    /// The sublattice (basis index) of a site — on BCC, the two
    /// sublattices of the B2-ordered configuration.
    #[inline]
    pub fn sublattice(&self, site: SiteId) -> usize {
        site as usize % self.atoms_per_cell()
    }

    /// Cartesian position of a site in units of the conventional lattice
    /// parameter.
    pub fn position(&self, site: SiteId) -> [f64; 3] {
        let (x, y, z, b) = self.decompose(site);
        let base = self.structure.basis()[b];
        [x as f64 + base[0], y as f64 + base[1], z as f64 + base[2]]
    }

    /// Build a shell-resolved neighbor table with `num_shells` coordination
    /// shells. The table is immutable and shared by all walkers.
    pub fn neighbor_table(&self, num_shells: usize) -> NeighborTable {
        NeighborTable::build(self, num_shells)
    }

    /// Fallible variant of [`Supercell::neighbor_table`]: returns a typed
    /// error when the structure exposes fewer shells than requested, so a
    /// bad material definition surfaces as an error chain, not a panic.
    pub fn try_neighbor_table(
        &self,
        num_shells: usize,
    ) -> Result<NeighborTable, crate::error::LatticeError> {
        NeighborTable::try_build(self, num_shells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_count() {
        assert_eq!(Supercell::cubic(Structure::bcc(), 4).num_sites(), 128);
        assert_eq!(Supercell::cubic(Structure::fcc(), 3).num_sites(), 108);
        assert_eq!(
            Supercell::new(Structure::simple_cubic(), [2, 3, 4]).num_sites(),
            24
        );
    }

    #[test]
    fn site_at_roundtrips_with_decompose() {
        let cell = Supercell::new(Structure::bcc(), [3, 4, 5]);
        for site in 0..cell.num_sites() as SiteId {
            let (x, y, z, b) = cell.decompose(site);
            assert_eq!(cell.site_at(x as isize, y as isize, z as isize, b), site);
        }
    }

    #[test]
    fn site_at_wraps_periodically() {
        let cell = Supercell::cubic(Structure::bcc(), 4);
        assert_eq!(cell.site_at(-1, 0, 0, 0), cell.site_at(3, 0, 0, 0));
        assert_eq!(cell.site_at(4, 5, 6, 1), cell.site_at(0, 1, 2, 1));
    }

    #[test]
    fn positions_include_basis_offset() {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let corner = cell.site_at(1, 0, 0, 0);
        assert_eq!(cell.position(corner), [1.0, 0.0, 0.0]);
        let center = cell.site_at(1, 0, 0, 1);
        assert_eq!(cell.position(center), [1.5, 0.5, 0.5]);
    }

    #[test]
    fn sublattice_alternates_with_basis() {
        let cell = Supercell::cubic(Structure::bcc(), 2);
        assert_eq!(cell.sublattice(0), 0);
        assert_eq!(cell.sublattice(1), 1);
        assert_eq!(cell.sublattice(2), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = Supercell::new(Structure::bcc(), [0, 2, 2]);
    }
}
