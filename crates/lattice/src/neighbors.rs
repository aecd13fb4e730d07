//! Shell-resolved neighbor tables.
//!
//! The table is built once per supercell and shared (immutably) by every
//! Monte Carlo walker. Periodic images are counted with multiplicity, so
//! pair sums over the table are exact under periodic boundary conditions
//! even for very small cells.

use crate::error::LatticeError;
use crate::supercell::Supercell;
use crate::SiteId;

/// A candidate neighbor: cell offset, basis index, squared distance.
type Candidate = (isize, isize, isize, usize, f64);

/// Relative squared-distance tolerance when grouping neighbors into
/// shells. Two candidates at squared distances `d²` and `e²` belong to
/// the same shell when `|d² − e²| ≤ SHELL_REL_TOL · max(1, d²)` — the
/// scale factor keeps grouping robust for far shells, where absolute
/// floating-point error grows with the distance itself, while remaining
/// bit-identical to the historical absolute `1e-9` cutoff for the
/// near shells (`d ≤ a`) every legacy material uses.
const SHELL_REL_TOL: f64 = 1e-9;

/// Squared-distance tolerance at squared distance `d2` (relative,
/// clamped so it never collapses below the historical absolute cutoff).
#[inline]
fn shell_tol(d2: f64) -> f64 {
    SHELL_REL_TOL * d2.max(1.0)
}

/// Smallest cell-offset search range guaranteed to enumerate every
/// periodic image out to distance `d` (lattice-parameter units): basis
/// fractions lie in `[0, 1)`, so a vector of length `d` has every cell
/// offset component bounded by `d + 1`.
fn offset_range_for(d: f64) -> isize {
    (d + 1.0).ceil() as isize
}

/// Hard cap on the candidate search range. `±8` conventional cells
/// covers dozens of shells for every cubic structure — a request that
/// still fails here is malformed, not under-searched.
const MAX_OFFSET_RANGE: isize = 8;

/// A flat, shell-resolved neighbor list for every site of a supercell.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    /// Flat neighbor ids: `[site][shell][k]` with per-shell strides.
    data: Vec<SiteId>,
    /// Coordination number of each shell (same for every site).
    coordination: Vec<usize>,
    /// Prefix offsets of each shell within one site's block.
    shell_offsets: Vec<usize>,
    /// Geometric distance of each shell in lattice-parameter units.
    distances: Vec<f64>,
    /// Stride of one site's block (= total neighbors across shells).
    site_stride: usize,
    num_sites: usize,
}

impl NeighborTable {
    /// Build a table with the `num_shells` nearest coordination shells.
    ///
    /// # Panics
    /// Panics if the structure exposes fewer than `num_shells` shells within
    /// the search range, or if sites are not all shell-equivalent (true for
    /// BCC/FCC/SC). Use [`NeighborTable::try_build`] for a fallible variant
    /// suitable for user-supplied material definitions.
    pub fn build(cell: &Supercell, num_shells: usize) -> Self {
        match Self::try_build(cell, num_shells) {
            Ok(table) => table,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`NeighborTable::build`]: returns a typed
    /// [`LatticeError`] instead of panicking when the structure exposes
    /// fewer shells than requested or its basis sites are not
    /// shell-equivalent.
    ///
    /// The candidate search range is derived from the requested shell
    /// count: starting from the legacy `±2` cells, the range grows until
    /// every requested shell is *provably complete* — a shell at distance
    /// `d` is complete once `d ≤ range − 1`, because every periodic image
    /// at that distance then lies inside the enumerated offsets (see
    /// `offset_range_for`). This fixes the silent image truncation a
    /// fixed range caused for far shells (e.g. 6-shell BCC at `d = 2a`).
    pub fn try_build(cell: &Supercell, num_shells: usize) -> Result<Self, LatticeError> {
        assert!(num_shells > 0, "need at least one shell");
        let b_count = cell.atoms_per_cell();
        let basis = cell.structure().basis().to_vec();

        // Candidate offsets: (dcell, basis) pairs with their squared
        // geometric distance from a reference basis atom. All sites with
        // the same basis index share candidates. Enumerated at a given
        // range, re-enumerated at a wider one if the requested shells are
        // not all complete within it.
        let enumerate = |range: isize| -> Vec<Vec<Candidate>> {
            let mut per_basis: Vec<Vec<Candidate>> = Vec::with_capacity(b_count);
            for (b0, base0) in basis.iter().enumerate() {
                let mut cands = Vec::new();
                for dz in -range..=range {
                    for dy in -range..=range {
                        for dx in -range..=range {
                            for (b, base) in basis.iter().enumerate() {
                                if dx == 0 && dy == 0 && dz == 0 && b == b0 {
                                    continue;
                                }
                                let v = [
                                    dx as f64 + base[0] - base0[0],
                                    dy as f64 + base[1] - base0[1],
                                    dz as f64 + base[2] - base0[2],
                                ];
                                let d2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                                cands.push((dx, dy, dz, b, d2));
                            }
                        }
                    }
                }
                per_basis.push(cands);
            }
            per_basis
        };

        // Shell distances: unique squared distances, sorted ascending.
        let group_shells = |per_basis: &[Vec<Candidate>]| -> Vec<f64> {
            let mut d2s: Vec<f64> = per_basis
                .iter()
                .flat_map(|c| c.iter().map(|&(_, _, _, _, d2)| d2))
                .collect();
            d2s.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let mut shells_d2: Vec<f64> = Vec::new();
            for d2 in d2s {
                if shells_d2
                    .last()
                    .is_none_or(|&last| d2 > last + shell_tol(last))
                {
                    shells_d2.push(d2);
                }
            }
            shells_d2
        };

        let mut range = 2isize;
        let (per_basis, mut shells_d2) = loop {
            let per_basis = enumerate(range);
            let shells_d2 = group_shells(&per_basis);
            // A shell is complete when every periodic image at its
            // distance is guaranteed enumerated within `range`.
            let complete_limit = (range - 1) as f64;
            let complete = shells_d2
                .iter()
                .take_while(|&&d2| d2.sqrt() <= complete_limit + 1e-9)
                .count();
            if complete >= num_shells {
                break (per_basis, shells_d2);
            }
            if range >= MAX_OFFSET_RANGE {
                return Err(LatticeError::ShellsUnavailable {
                    available: complete,
                    requested: num_shells,
                });
            }
            range = (range + 1).max(offset_range_for(
                shells_d2.get(num_shells - 1).map_or(0.0, |&d2| d2.sqrt()),
            ));
            range = range.min(MAX_OFFSET_RANGE);
        };
        shells_d2.truncate(num_shells);

        // Coordination per shell, checked identical across basis sites.
        let shell_of = |d2: f64| -> Option<usize> {
            shells_d2
                .iter()
                .position(|&sd2| (d2 - sd2).abs() <= shell_tol(sd2))
        };
        let mut coordination = vec![0usize; num_shells];
        for (s, _) in shells_d2.iter().enumerate() {
            let z0 = per_basis[0]
                .iter()
                .filter(|&&(_, _, _, _, d2)| shell_of(d2) == Some(s))
                .count();
            for cands in &per_basis {
                let z = cands
                    .iter()
                    .filter(|&&(_, _, _, _, d2)| shell_of(d2) == Some(s))
                    .count();
                if z != z0 {
                    return Err(LatticeError::InequivalentBasis { shell: s });
                }
            }
            coordination[s] = z0;
        }

        let site_stride: usize = coordination.iter().sum();
        let mut shell_offsets = Vec::with_capacity(num_shells);
        let mut acc = 0usize;
        for &z in &coordination {
            shell_offsets.push(acc);
            acc += z;
        }

        let num_sites = cell.num_sites();
        let mut data = vec![0 as SiteId; num_sites * site_stride];
        for site in 0..num_sites as SiteId {
            let (x, y, z, b0) = cell.decompose(site);
            let block = site as usize * site_stride;
            let mut cursor = shell_offsets.clone();
            for &(dx, dy, dz, b, d2) in &per_basis[b0] {
                if let Some(s) = shell_of(d2) {
                    let nb = cell.site_at(x as isize + dx, y as isize + dy, z as isize + dz, b);
                    data[block + cursor[s]] = nb;
                    cursor[s] += 1;
                }
            }
            for (s, &c) in cursor.iter().enumerate() {
                debug_assert_eq!(
                    c,
                    shell_offsets[s] + coordination[s],
                    "shell {s} of site {site} underfilled"
                );
            }
        }

        Ok(NeighborTable {
            data,
            coordination,
            shell_offsets,
            distances: shells_d2.iter().map(|d2| d2.sqrt()).collect(),
            site_stride,
            num_sites,
        })
    }

    /// Number of shells stored.
    pub fn num_shells(&self) -> usize {
        self.coordination.len()
    }

    /// Number of sites covered.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Coordination number `z_s` of shell `s`.
    pub fn coordination(&self, shell: usize) -> usize {
        self.coordination[shell]
    }

    /// Geometric distance of shell `s` in lattice-parameter units.
    pub fn shell_distance(&self, shell: usize) -> f64 {
        self.distances[shell]
    }

    /// Neighbors of `site` in `shell` (periodic images appear with
    /// multiplicity).
    #[inline]
    pub fn neighbors(&self, site: SiteId, shell: usize) -> &[SiteId] {
        let block = site as usize * self.site_stride;
        let start = block + self.shell_offsets[shell];
        &self.data[start..start + self.coordination[shell]]
    }

    /// Total directed pair count in `shell` (= `N · z_s`).
    pub fn directed_pair_count(&self, shell: usize) -> usize {
        self.num_sites * self.coordination[shell]
    }

    /// Iterate over all directed pairs `(i, j)` of `shell`.
    pub fn pairs(&self, shell: usize) -> impl Iterator<Item = (SiteId, SiteId)> + '_ {
        (0..self.num_sites as SiteId)
            .flat_map(move |i| self.neighbors(i, shell).iter().map(move |&j| (i, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Structure;

    #[test]
    fn bcc_coordination_and_distances() {
        let cell = Supercell::cubic(Structure::bcc(), 4);
        let t = cell.neighbor_table(2);
        assert_eq!(t.coordination(0), 8);
        assert_eq!(t.coordination(1), 6);
        assert!((t.shell_distance(0) - 0.75f64.sqrt()).abs() < 1e-12);
        assert!((t.shell_distance(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fcc_coordination() {
        let cell = Supercell::cubic(Structure::fcc(), 3);
        let t = cell.neighbor_table(2);
        assert_eq!(t.coordination(0), 12);
        assert_eq!(t.coordination(1), 6);
    }

    #[test]
    fn sc_coordination() {
        let cell = Supercell::cubic(Structure::simple_cubic(), 4);
        let t = cell.neighbor_table(2);
        assert_eq!(t.coordination(0), 6);
        assert_eq!(t.coordination(1), 12);
    }

    #[test]
    fn neighbor_relation_is_symmetric_with_multiplicity() {
        // j appears in i's list exactly as many times as i appears in j's.
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let t = cell.neighbor_table(2);
        for shell in 0..2 {
            for i in 0..cell.num_sites() as SiteId {
                for &j in t.neighbors(i, shell) {
                    let ij = t.neighbors(i, shell).iter().filter(|&&n| n == j).count();
                    let ji = t.neighbors(j, shell).iter().filter(|&&n| n == i).count();
                    assert_eq!(ij, ji, "asymmetry between {i} and {j} in shell {shell}");
                }
            }
        }
    }

    #[test]
    fn neighbors_are_at_shell_distance() {
        let cell = Supercell::new(Structure::bcc(), [4, 5, 6]);
        let t = cell.neighbor_table(2);
        let dims = [4.0, 5.0, 6.0];
        for shell in 0..2 {
            let d = t.shell_distance(shell);
            for i in 0..cell.num_sites() as SiteId {
                let pi = cell.position(i);
                for &j in t.neighbors(i, shell) {
                    let pj = cell.position(j);
                    // Minimum-image distance must equal the shell distance.
                    let mut d2 = 0.0;
                    for k in 0..3 {
                        let mut dd = (pj[k] - pi[k]).abs() % dims[k];
                        if dd > dims[k] / 2.0 {
                            dd = dims[k] - dd;
                        }
                        d2 += dd * dd;
                    }
                    assert!(
                        (d2.sqrt() - d).abs() < 1e-9,
                        "site {i}->{j}: {} != {d}",
                        d2.sqrt()
                    );
                }
            }
        }
    }

    #[test]
    fn small_cell_images_counted_with_multiplicity() {
        // L=2 BCC: each first-shell neighbor direction is distinct, but the
        // coordination must still be exactly 8 per site.
        let cell = Supercell::cubic(Structure::bcc(), 2);
        let t = cell.neighbor_table(1);
        for i in 0..cell.num_sites() as SiteId {
            assert_eq!(t.neighbors(i, 0).len(), 8);
        }
    }

    #[test]
    fn pairs_iterator_counts_directed_pairs() {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let t = cell.neighbor_table(2);
        assert_eq!(t.pairs(0).count(), t.directed_pair_count(0));
        assert_eq!(t.pairs(0).count(), cell.num_sites() * 8);
        assert_eq!(t.pairs(1).count(), cell.num_sites() * 6);
    }

    #[test]
    fn bcc_golden_coordination_shells_1_to_6() {
        // z = 8, 6, 12, 24, 8, 6 at d = √3/2, 1, √2, √11/2, √3, 2.
        // Shell 6 sits at exactly 2a — beyond the legacy fixed ±2 search
        // completeness boundary, so this exercises the derived range.
        let cell = Supercell::cubic(Structure::bcc(), 6);
        let t = cell.neighbor_table(6);
        let golden_z = [8, 6, 12, 24, 8, 6];
        let golden_d = [
            0.75f64.sqrt(),
            1.0,
            2.0f64.sqrt(),
            2.75f64.sqrt(),
            3.0f64.sqrt(),
            2.0,
        ];
        for s in 0..6 {
            assert_eq!(t.coordination(s), golden_z[s], "BCC shell {}", s + 1);
            assert!(
                (t.shell_distance(s) - golden_d[s]).abs() < 1e-12,
                "BCC shell {} distance {} != {}",
                s + 1,
                t.shell_distance(s),
                golden_d[s]
            );
        }
    }

    #[test]
    fn fcc_golden_coordination_shells_1_to_6() {
        // z = 12, 6, 24, 12, 24, 8 at d = √½, 1, √1.5, √2, √2.5, √3.
        let cell = Supercell::cubic(Structure::fcc(), 5);
        let t = cell.neighbor_table(6);
        let golden_z = [12, 6, 24, 12, 24, 8];
        let golden_d = [
            0.5f64.sqrt(),
            1.0,
            1.5f64.sqrt(),
            2.0f64.sqrt(),
            2.5f64.sqrt(),
            3.0f64.sqrt(),
        ];
        for s in 0..6 {
            assert_eq!(t.coordination(s), golden_z[s], "FCC shell {}", s + 1);
            assert!(
                (t.shell_distance(s) - golden_d[s]).abs() < 1e-12,
                "FCC shell {} distance {} != {}",
                s + 1,
                t.shell_distance(s),
                golden_d[s]
            );
        }
    }

    #[test]
    fn far_shells_symmetric_with_multiplicity() {
        // The derived search range must keep image multiplicity exact for
        // far shells on a small cell, just as it is for near shells.
        let cell = Supercell::cubic(Structure::fcc(), 2);
        let t = cell.neighbor_table(5);
        for shell in 0..5 {
            for i in 0..cell.num_sites() as SiteId {
                for &j in t.neighbors(i, shell) {
                    let ij = t.neighbors(i, shell).iter().filter(|&&n| n == j).count();
                    let ji = t.neighbors(j, shell).iter().filter(|&&n| n == i).count();
                    assert_eq!(ij, ji, "asymmetry between {i} and {j} in shell {shell}");
                }
            }
        }
    }

    #[test]
    fn try_build_reports_unavailable_shells() {
        let cell = Supercell::cubic(Structure::simple_cubic(), 3);
        let err = NeighborTable::try_build(&cell, 200).unwrap_err();
        match err {
            LatticeError::ShellsUnavailable {
                available,
                requested,
            } => {
                assert!(available < 200);
                assert_eq!(requested, 200);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn try_build_matches_build_for_legacy_range() {
        // The fallible path with the derived range must be bit-identical
        // to the legacy fixed-range table for the NbMoTaW golden case.
        let cell = Supercell::cubic(Structure::bcc(), 4);
        let a = NeighborTable::build(&cell, 2);
        let b = NeighborTable::try_build(&cell, 2).unwrap();
        assert_eq!(a.data, b.data);
        assert_eq!(a.coordination, b.coordination);
        assert_eq!(a.shell_offsets, b.shell_offsets);
        assert_eq!(a.distances, b.distances);
    }
}
