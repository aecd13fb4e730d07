//! The alloy-agnostic material layer.
//!
//! A [`Material`] bundles everything the pipeline needs to know about an
//! alloy system: the crystal [`Structure`], the named [`SpeciesSet`], the
//! relative composition ratios, the number of interaction shells, and the
//! EPI [`PairHamiltonian`]. Everything above this layer — surrogate and
//! proposal training, REWL sampling, serving — is generic over it.
//!
//! Materials come from two places:
//!
//! - the **registry** of built-ins ([`Material::builtin`]): `nbmotaw`
//!   (the paper's BCC refractory HEA, bit-identical to the historical
//!   hard-wired path) and `crconi` (an FCC ordering alloy with 4 shells);
//! - **declarative files** in the `dtmat v1` text format
//!   ([`Material::parse`] / [`Material::serialize`]), so new alloys need
//!   no recompile. The format round-trips exactly: floats are written
//!   with shortest-exact formatting and re-read bit-identically.
//!
//! ```text
//! dtmat v1
//! name cuau
//! display CuAu
//! structure fcc
//! shells 4
//! species Cu Au
//! ratios 1 1
//! epi 0 Cu Au -0.012
//! epi 1 Cu Cu -0.004
//! end
//! ```

use std::fmt;
use std::path::Path;

use dt_lattice::{Composition, LatticeError, SpeciesSet, Structure};

use crate::pair::PairHamiltonian;

/// Errors producing a [`Material`] from the registry or a definition file.
#[derive(Debug, Clone, PartialEq)]
pub enum MaterialError {
    /// The requested name is not in the built-in registry.
    UnknownBuiltin(String),
    /// Reading or writing a material file failed.
    Io {
        /// Path of the file.
        path: String,
        /// OS error message.
        message: String,
    },
    /// A material file failed to parse.
    Parse {
        /// 1-based line number of the offending line (0 for file-level
        /// problems such as a missing header).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The species set and the Hamiltonian disagree on species count.
    SpeciesCountMismatch {
        /// Number of named species.
        species: usize,
        /// Number of species the Hamiltonian was built for.
        hamiltonian: usize,
    },
    /// The declared shell count and the Hamiltonian disagree.
    ShellCountMismatch {
        /// Declared number of shells.
        shells: usize,
        /// Number of shells the Hamiltonian carries.
        hamiltonian: usize,
    },
    /// The composition ratio list does not match the species count.
    RatioCountMismatch {
        /// Number of ratios given.
        ratios: usize,
        /// Number of named species.
        species: usize,
    },
    /// A lattice-layer validation failed (bad ratios, too many species,
    /// shells unavailable on the structure, ...).
    Lattice(LatticeError),
}

impl fmt::Display for MaterialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterialError::UnknownBuiltin(name) => write!(
                f,
                "unknown built-in material '{name}' (available: {})",
                Material::builtin_names().join(", ")
            ),
            MaterialError::Io { path, message } => {
                write!(f, "material file {path}: {message}")
            }
            MaterialError::Parse { line, message } => {
                write!(f, "material file line {line}: {message}")
            }
            MaterialError::SpeciesCountMismatch {
                species,
                hamiltonian,
            } => write!(
                f,
                "{species} species named but the Hamiltonian has {hamiltonian}"
            ),
            MaterialError::ShellCountMismatch {
                shells,
                hamiltonian,
            } => write!(
                f,
                "{shells} shells declared but the Hamiltonian has {hamiltonian}"
            ),
            MaterialError::RatioCountMismatch { ratios, species } => {
                write!(f, "{ratios} composition ratios given for {species} species")
            }
            MaterialError::Lattice(e) => write!(f, "lattice: {e}"),
        }
    }
}

impl std::error::Error for MaterialError {}

impl From<LatticeError> for MaterialError {
    fn from(e: LatticeError) -> Self {
        MaterialError::Lattice(e)
    }
}

/// A complete alloy system definition: structure + species + composition
/// ratios + shell count + EPI matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct Material {
    key: String,
    display_name: String,
    structure: Structure,
    species: SpeciesSet,
    ratios: Vec<f64>,
    num_shells: usize,
    hamiltonian: PairHamiltonian,
}

impl Material {
    /// Assemble a material, validating that species set, composition
    /// ratios, shell count, and Hamiltonian are mutually consistent.
    ///
    /// # Errors
    /// Fails on any count mismatch or invalid ratio list.
    pub fn new(
        key: impl Into<String>,
        display_name: impl Into<String>,
        structure: Structure,
        species: SpeciesSet,
        ratios: Vec<f64>,
        num_shells: usize,
        hamiltonian: PairHamiltonian,
    ) -> Result<Self, MaterialError> {
        use crate::model::EnergyModel;
        if species.len() != hamiltonian.num_species() {
            return Err(MaterialError::SpeciesCountMismatch {
                species: species.len(),
                hamiltonian: hamiltonian.num_species(),
            });
        }
        if num_shells == 0 || num_shells != hamiltonian.num_shells() {
            return Err(MaterialError::ShellCountMismatch {
                shells: num_shells,
                hamiltonian: hamiltonian.num_shells(),
            });
        }
        if ratios.len() != species.len() {
            return Err(MaterialError::RatioCountMismatch {
                ratios: ratios.len(),
                species: species.len(),
            });
        }
        if ratios.iter().any(|r| !r.is_finite() || *r < 0.0) || ratios.iter().sum::<f64>() <= 0.0 {
            return Err(MaterialError::Lattice(LatticeError::BadRatios));
        }
        Ok(Material {
            key: key.into(),
            display_name: display_name.into(),
            structure,
            species,
            ratios,
            num_shells,
            hamiltonian,
        })
    }

    /// Registry key (lowercase identifier used in artifact ids and the
    /// CLI, e.g. `"nbmotaw"`).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Human-readable name (e.g. `"NbMoTaW"`).
    pub fn display_name(&self) -> &str {
        &self.display_name
    }

    /// Crystal structure.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Named species set.
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// Relative composition ratios, one per species (need not sum to 1).
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Number of interaction shells the Hamiltonian couples.
    pub fn num_shells(&self) -> usize {
        self.num_shells
    }

    /// The EPI Hamiltonian.
    pub fn hamiltonian(&self) -> &PairHamiltonian {
        &self.hamiltonian
    }

    /// Number of species.
    pub fn num_species(&self) -> usize {
        self.species.len()
    }

    /// True when every species has the same composition ratio.
    pub fn is_equiatomic(&self) -> bool {
        self.ratios
            .iter()
            .all(|&r| (r - self.ratios[0]).abs() < 1e-12)
    }

    /// Apportion `num_sites` lattice sites according to the composition
    /// ratios. Equiatomic ratios reproduce [`Composition::equiatomic`]
    /// bit-identically.
    ///
    /// # Errors
    /// Propagates [`LatticeError`] for invalid site counts.
    pub fn composition(&self, num_sites: usize) -> Result<Composition, MaterialError> {
        if self.is_equiatomic() {
            // Preserve the historical code path (and its exact rounding)
            // for the equiatomic case.
            return Ok(Composition::equiatomic(self.species.len(), num_sites)?);
        }
        Ok(Composition::from_ratios(&self.ratios, num_sites)?)
    }

    /// Same material with different composition ratios (e.g. an
    /// off-stoichiometry variant of a registry entry).
    ///
    /// # Errors
    /// Fails when the ratio list is invalid for this species set.
    pub fn with_ratios(&self, ratios: Vec<f64>) -> Result<Self, MaterialError> {
        Material::new(
            self.key.clone(),
            self.display_name.clone(),
            self.structure.clone(),
            self.species.clone(),
            ratios,
            self.num_shells,
            self.hamiltonian.clone(),
        )
    }

    /// One-line composition summary: `"equiatomic"` or percentage
    /// fractions like `"40/30/30"`.
    pub fn composition_summary(&self) -> String {
        if self.is_equiatomic() {
            return "equiatomic".to_string();
        }
        let sum: f64 = self.ratios.iter().sum();
        self.ratios
            .iter()
            .map(|r| format!("{:.0}", 100.0 * r / sum))
            .collect::<Vec<_>>()
            .join("/")
    }

    /// Names of the built-in registry entries.
    pub fn builtin_names() -> &'static [&'static str] {
        &["nbmotaw", "crconi"]
    }

    /// Look up a built-in material by registry key.
    ///
    /// # Errors
    /// [`MaterialError::UnknownBuiltin`] for names not in the registry.
    pub fn builtin(name: &str) -> Result<Self, MaterialError> {
        match name {
            "nbmotaw" => Ok(Self::nbmotaw()),
            "crconi" => Ok(Self::crconi()),
            other => Err(MaterialError::UnknownBuiltin(other.to_string())),
        }
    }

    /// The paper's system: equiatomic NbMoTaW on BCC with 2 EPI shells.
    /// The Hamiltonian is exactly [`crate::nbmotaw::nbmotaw`], so every
    /// golden fingerprint of the historical hard-wired path is preserved.
    pub fn nbmotaw() -> Self {
        Material::new(
            "nbmotaw",
            "NbMoTaW",
            Structure::bcc(),
            SpeciesSet::nb_mo_ta_w(),
            vec![1.0; 4],
            2,
            crate::nbmotaw::nbmotaw(),
        )
        .expect("static material is valid")
    }

    /// An FCC ordering alloy shaped after CrCoNi: 3 species, 4 EPI
    /// shells. First-shell interactions disfavor Cr–Cr pairs and favor
    /// Cr–Co / Cr–Ni unlike pairs — the strong chemical short-range order
    /// reported for CrCoNi — while weaker far-shell terms stabilize the
    /// ordered arrangement, driving an order–disorder transition the
    /// FCC end-to-end pipeline can resolve.
    pub fn crconi() -> Self {
        // shell, a, b, V (eV); species Cr=0, Co=1, Ni=2.
        let epi: &[(usize, usize, usize, f64)] = &[
            (0, 0, 0, 0.0300),
            (0, 0, 1, -0.0240),
            (0, 0, 2, -0.0280),
            (0, 1, 1, 0.0040),
            (0, 1, 2, -0.0020),
            (0, 2, 2, 0.0020),
            (1, 0, 0, -0.0120),
            (1, 0, 1, 0.0080),
            (1, 0, 2, 0.0100),
            (2, 0, 1, -0.0030),
            (2, 0, 2, -0.0020),
            (3, 0, 0, 0.0020),
            (3, 1, 2, -0.0020),
        ];
        Material::new(
            "crconi",
            "CrCoNi",
            Structure::fcc(),
            SpeciesSet::new(vec!["Cr", "Co", "Ni"]).expect("static set is valid"),
            vec![1.0; 3],
            4,
            PairHamiltonian::from_pairs(3, 4, epi),
        )
        .expect("static material is valid")
    }

    /// Resolve a CLI-style specifier: a built-in registry key, or a path
    /// to a `dtmat v1` file.
    ///
    /// # Errors
    /// Propagates registry / IO / parse errors.
    pub fn resolve(spec: &str) -> Result<Self, MaterialError> {
        if Self::builtin_names().contains(&spec) {
            Self::builtin(spec)
        } else if spec.contains(['/', '.']) || Path::new(spec).exists() {
            Self::load(Path::new(spec))
        } else {
            // A bare word that is neither a registry key nor an existing
            // file reads better as "unknown material" than as an IO error.
            Err(MaterialError::UnknownBuiltin(spec.to_string()))
        }
    }

    /// Load a material definition from a `dtmat v1` file.
    ///
    /// # Errors
    /// [`MaterialError::Io`] on read failure, parse errors otherwise.
    pub fn load(path: &Path) -> Result<Self, MaterialError> {
        let text = std::fs::read_to_string(path).map_err(|e| MaterialError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Write this material as a `dtmat v1` file.
    ///
    /// # Errors
    /// [`MaterialError::Io`] on write failure.
    pub fn save(&self, path: &Path) -> Result<(), MaterialError> {
        std::fs::write(path, self.serialize()).map_err(|e| MaterialError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Serialize to the `dtmat v1` text format. Floats are written with
    /// shortest-exact formatting, so [`Material::parse`] round-trips
    /// bit-identically.
    pub fn serialize(&self) -> String {
        use dt_lattice::Species;
        let mut out = String::new();
        out.push_str("dtmat v1\n");
        out.push_str(&format!("name {}\n", self.key));
        out.push_str(&format!("display {}\n", self.display_name));
        out.push_str(&format!("structure {}\n", self.structure.name()));
        out.push_str(&format!("shells {}\n", self.num_shells));
        out.push_str("species");
        for (_, name) in self.species.iter() {
            out.push(' ');
            out.push_str(name);
        }
        out.push('\n');
        out.push_str("ratios");
        for r in &self.ratios {
            out.push_str(&format!(" {r:?}"));
        }
        out.push('\n');
        let m = self.species.len();
        for shell in 0..self.num_shells {
            for a in 0..m {
                for b in a..m {
                    let v = self
                        .hamiltonian
                        .v(shell, Species(a as u8), Species(b as u8));
                    if v != 0.0 {
                        out.push_str(&format!(
                            "epi {shell} {} {} {v:?}\n",
                            self.species.name(Species(a as u8)),
                            self.species.name(Species(b as u8)),
                        ));
                    }
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parse a `dtmat v1` document.
    ///
    /// # Errors
    /// [`MaterialError::Parse`] with the offending line number; count and
    /// validity mismatches surface as their typed variants.
    pub fn parse(text: &str) -> Result<Self, MaterialError> {
        let err = |line: usize, message: String| MaterialError::Parse { line, message };
        let mut lines = text.lines().enumerate();
        // The header must be the first material line, but comments and
        // blank lines may precede it (files often open with a banner).
        let (n, header) = lines
            .by_ref()
            .find(|(_, l)| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .ok_or_else(|| err(0, "empty material file".into()))?;
        if header.trim() != "dtmat v1" {
            return Err(err(
                n + 1,
                format!("expected 'dtmat v1' header, got '{header}'"),
            ));
        }

        let mut name: Option<String> = None;
        let mut display: Option<String> = None;
        let mut structure: Option<Structure> = None;
        let mut shells: Option<usize> = None;
        let mut species: Option<SpeciesSet> = None;
        let mut ratios: Option<Vec<f64>> = None;
        let mut epi: Vec<(usize, usize, usize, f64)> = Vec::new();
        let mut saw_end = false;

        for (i, raw) in lines {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let kw = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            match kw {
                "name" => {
                    name = Some(
                        rest.first()
                            .ok_or_else(|| err(lineno, "name needs a value".into()))?
                            .to_string(),
                    );
                }
                "display" => {
                    display = Some(rest.join(" "));
                }
                "structure" => {
                    let s = rest
                        .first()
                        .ok_or_else(|| err(lineno, "structure needs a value".into()))?;
                    structure = Some(match *s {
                        "bcc" => Structure::bcc(),
                        "fcc" => Structure::fcc(),
                        "sc" => Structure::simple_cubic(),
                        other => {
                            return Err(err(
                                lineno,
                                format!("unknown structure '{other}' (bcc, fcc, sc)"),
                            ))
                        }
                    });
                }
                "shells" => {
                    let s = rest
                        .first()
                        .ok_or_else(|| err(lineno, "shells needs a value".into()))?;
                    shells = Some(
                        s.parse::<usize>()
                            .map_err(|_| err(lineno, format!("bad shell count '{s}'")))?,
                    );
                }
                "species" => {
                    if rest.is_empty() {
                        return Err(err(lineno, "species needs at least one name".into()));
                    }
                    species = Some(SpeciesSet::new(
                        rest.iter().map(|s| s.to_string()).collect(),
                    )?);
                }
                "ratios" => {
                    let mut v = Vec::with_capacity(rest.len());
                    for s in &rest {
                        v.push(
                            s.parse::<f64>()
                                .map_err(|_| err(lineno, format!("bad ratio '{s}'")))?,
                        );
                    }
                    ratios = Some(v);
                }
                "epi" => {
                    if rest.len() != 4 {
                        return Err(err(
                            lineno,
                            "epi needs: <shell> <species> <species> <value>".into(),
                        ));
                    }
                    let sp = species.as_ref().ok_or_else(|| {
                        err(lineno, "epi lines must come after the species line".into())
                    })?;
                    let shell = rest[0]
                        .parse::<usize>()
                        .map_err(|_| err(lineno, format!("bad epi shell '{}'", rest[0])))?;
                    let a = sp.by_name(rest[1]).ok_or_else(|| {
                        err(lineno, format!("unknown species '{}' in epi line", rest[1]))
                    })?;
                    let b = sp.by_name(rest[2]).ok_or_else(|| {
                        err(lineno, format!("unknown species '{}' in epi line", rest[2]))
                    })?;
                    let v = rest[3]
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| err(lineno, format!("bad epi value '{}'", rest[3])))?;
                    epi.push((shell, a.index(), b.index(), v));
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => {
                    return Err(err(lineno, format!("unknown keyword '{other}'")));
                }
            }
        }
        if !saw_end {
            return Err(err(0, "missing 'end' line".into()));
        }

        let missing = |what: &str| err(0, format!("missing '{what}' line"));
        let name = name.ok_or_else(|| missing("name"))?;
        let structure = structure.ok_or_else(|| missing("structure"))?;
        let shells = shells.ok_or_else(|| missing("shells"))?;
        let species = species.ok_or_else(|| missing("species"))?;
        let display = display.unwrap_or_else(|| name.clone());
        let ratios = ratios.unwrap_or_else(|| vec![1.0; species.len()]);

        if shells == 0 {
            return Err(err(0, "shell count must be at least 1".into()));
        }
        for &(shell, _, _, _) in &epi {
            if shell >= shells {
                return Err(err(
                    0,
                    format!("epi shell {shell} out of range for {shells} shells"),
                ));
            }
        }
        let hamiltonian = PairHamiltonian::from_pairs(species.len(), shells, &epi);
        Material::new(
            name,
            display,
            structure,
            species,
            ratios,
            shells,
            hamiltonian,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EnergyModel;
    use crate::nbmotaw::nbmotaw;

    #[test]
    fn builtin_nbmotaw_is_bit_identical_to_legacy_hamiltonian() {
        let mat = Material::builtin("nbmotaw").unwrap();
        assert_eq!(*mat.hamiltonian(), nbmotaw());
        assert_eq!(mat.key(), "nbmotaw");
        assert_eq!(mat.display_name(), "NbMoTaW");
        assert_eq!(mat.structure().name(), "bcc");
        assert_eq!(mat.num_shells(), 2);
        assert!(mat.is_equiatomic());
    }

    #[test]
    fn builtin_nbmotaw_composition_matches_equiatomic() {
        let mat = Material::nbmotaw();
        let c = mat.composition(128).unwrap();
        assert_eq!(c, Composition::equiatomic(4, 128).unwrap());
    }

    #[test]
    fn builtin_crconi_is_fcc_four_shell() {
        let mat = Material::builtin("crconi").unwrap();
        assert_eq!(mat.structure().name(), "fcc");
        assert_eq!(mat.num_shells(), 4);
        assert_eq!(mat.num_species(), 3);
        assert_eq!(mat.hamiltonian().num_shells(), 4);
        // The defining chemistry: Cr-Cr first-shell repulsion dominates.
        use dt_lattice::Species;
        let h = mat.hamiltonian();
        assert!(h.v(0, Species(0), Species(0)) > 0.0);
        assert!(h.v(0, Species(0), Species(1)) < 0.0);
        assert!(h.v(0, Species(0), Species(2)) < 0.0);
    }

    #[test]
    fn unknown_builtin_is_typed_error() {
        match Material::builtin("unobtainium") {
            Err(MaterialError::UnknownBuiltin(n)) => assert_eq!(n, "unobtainium"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn builtin_registry_round_trips_through_dtmat() {
        for name in Material::builtin_names() {
            let mat = Material::builtin(name).unwrap();
            let text = mat.serialize();
            let back = Material::parse(&text).unwrap();
            assert_eq!(mat, back, "round trip failed for {name}");
        }
    }

    #[test]
    fn dtmat_round_trips_awkward_floats() {
        let mat = Material::new(
            "toy",
            "Toy",
            Structure::simple_cubic(),
            SpeciesSet::new(vec!["A", "B"]).unwrap(),
            vec![0.1, 0.3],
            2,
            PairHamiltonian::from_pairs(
                2,
                2,
                &[(0, 0, 1, -0.017_345_600_000_000_2), (1, 0, 0, 1.0e-17)],
            ),
        )
        .unwrap();
        let back = Material::parse(&mat.serialize()).unwrap();
        assert_eq!(mat, back);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "dtmat v1\nname x\nstructure bcc\nshells 2\nspecies A B\nepi 0 A C 1.0\nend\n";
        match Material::parse(text) {
            Err(MaterialError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("unknown species 'C'"), "{message}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_header_and_missing_end() {
        assert!(matches!(
            Material::parse("not a material"),
            Err(MaterialError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            Material::parse("dtmat v1\nname x\nstructure bcc\nshells 1\nspecies A\n"),
            Err(MaterialError::Parse { line: 0, .. })
        ));
    }

    #[test]
    fn parse_rejects_out_of_range_epi_shell() {
        let text = "dtmat v1\nname x\nstructure bcc\nshells 1\nspecies A B\nepi 3 A B 1.0\nend\n";
        assert!(matches!(
            Material::parse(text),
            Err(MaterialError::Parse { .. })
        ));
    }

    fn parse_epi_value(value: &str) -> Result<Material, MaterialError> {
        Material::parse(&format!(
            "dtmat v1\nname x\nstructure bcc\nshells 1\nspecies A B\nepi 0 A B {value}\nend\n"
        ))
    }

    fn assert_bad_epi_value_on_line_6(value: &str) {
        match parse_epi_value(value) {
            Err(MaterialError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("bad epi value"), "{message}");
            }
            other => panic!("epi value {value}: unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_nan_epi() {
        assert_bad_epi_value_on_line_6("nan");
    }

    #[test]
    fn parse_rejects_infinite_epi() {
        assert_bad_epi_value_on_line_6("inf");
        assert_bad_epi_value_on_line_6("-inf");
    }

    #[test]
    fn parse_rejects_overflowing_epi() {
        assert_bad_epi_value_on_line_6("1e400");
        assert!(parse_epi_value("1e300").is_ok());
    }

    #[test]
    fn non_equiatomic_ratios_flow_into_composition() {
        let mat = Material::crconi().with_ratios(vec![4.0, 3.0, 3.0]).unwrap();
        assert!(!mat.is_equiatomic());
        assert_eq!(mat.composition_summary(), "40/30/30");
        let c = mat.composition(100).unwrap();
        assert_eq!(c.counts(), &[40, 30, 30]);
    }

    #[test]
    fn with_ratios_validates() {
        assert!(Material::crconi().with_ratios(vec![1.0]).is_err());
        assert!(Material::crconi().with_ratios(vec![0.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn resolve_prefers_registry_then_path() {
        assert_eq!(Material::resolve("crconi").unwrap(), Material::crconi());
        assert!(matches!(
            Material::resolve("/nonexistent/file.dtmat"),
            Err(MaterialError::Io { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("dtmat_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crconi.dtmat");
        let mat = Material::crconi();
        mat.save(&path).unwrap();
        let back = Material::load(&path).unwrap();
        assert_eq!(mat, back);
        std::fs::remove_file(&path).ok();
    }
}
