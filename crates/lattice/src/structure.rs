//! Crystal structures: Bravais lattice plus basis.
//!
//! The refractory high-entropy alloys DeepThermo targets (NbMoTaW) are
//! body-centered cubic; FCC and simple cubic are provided for generality and
//! for cheap exactly-solvable test systems.

/// A crystal structure described by a cubic conventional cell and a basis of
/// fractional atom positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Structure {
    name: &'static str,
    /// Fractional coordinates of the basis atoms within the conventional
    /// cubic cell (lattice parameter = 1).
    basis: Vec<[f64; 3]>,
}

impl Structure {
    /// Body-centered cubic: 2 atoms per conventional cell.
    /// First shell: 8 neighbors at `√3/2·a`; second shell: 6 at `a`.
    pub fn bcc() -> Self {
        Structure {
            name: "bcc",
            basis: vec![[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
        }
    }

    /// Face-centered cubic: 4 atoms per conventional cell.
    /// First shell: 12 neighbors at `a/√2`; second shell: 6 at `a`.
    pub fn fcc() -> Self {
        Structure {
            name: "fcc",
            basis: vec![
                [0.0, 0.0, 0.0],
                [0.5, 0.5, 0.0],
                [0.5, 0.0, 0.5],
                [0.0, 0.5, 0.5],
            ],
        }
    }

    /// Simple cubic: 1 atom per conventional cell.
    /// First shell: 6 neighbors at `a`; second shell: 12 at `√2·a`.
    pub fn simple_cubic() -> Self {
        Structure {
            name: "sc",
            basis: vec![[0.0, 0.0, 0.0]],
        }
    }

    /// Human-readable structure name (`"bcc"`, `"fcc"`, `"sc"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of atoms per conventional cell.
    pub fn atoms_per_cell(&self) -> usize {
        self.basis.len()
    }

    /// Fractional basis positions within the conventional cell.
    pub fn basis(&self) -> &[[f64; 3]] {
        &self.basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_per_cell() {
        assert_eq!(Structure::bcc().atoms_per_cell(), 2);
        assert_eq!(Structure::fcc().atoms_per_cell(), 4);
        assert_eq!(Structure::simple_cubic().atoms_per_cell(), 1);
    }

    #[test]
    fn names() {
        assert_eq!(Structure::bcc().name(), "bcc");
        assert_eq!(Structure::fcc().name(), "fcc");
        assert_eq!(Structure::simple_cubic().name(), "sc");
    }

    #[test]
    fn basis_positions_are_fractional() {
        for s in [
            Structure::bcc(),
            Structure::fcc(),
            Structure::simple_cubic(),
        ] {
            for p in s.basis() {
                for &x in p {
                    assert!((0.0..1.0).contains(&x));
                }
            }
        }
    }
}
