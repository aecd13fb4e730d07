//! The on-disk artifact registry.
//!
//! One artifact is one converged sampling run, stored as a directory:
//!
//! ```text
//! <registry>/<artifact-id>/
//!   manifest.json      # identity + provenance (human-readable)
//!   dos.dat            # "dtdos v1": energy grid + per-bin ln g and mask
//!   sro.dat            # "dtsro v1": microcanonical accumulator (optional)
//!   surrogate.dtsur    # serialized SurrogateModel (optional)
//! ```
//!
//! Floating-point payloads in `dos.dat` / `sro.dat` are written as
//! hexadecimal `f64` bit patterns — decimal round-tripping is *almost*
//! exact in Rust, but the registry's contract is stronger: a thermo
//! curve served from a loaded artifact must be **bit-identical** to one
//! evaluated on the producing run's in-memory data. The manifest stays
//! plain JSON because humans read it.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};

use dt_codec::text::{Reader, Writer};
use dt_telemetry::{parse_json, push_json_string, JsonValue};
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::EnergyGrid;

use crate::ServeError;

/// Identity and provenance of one converged run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactManifest {
    /// Registry key, e.g. `"nbmotaw-l3-seed2023"`.
    pub id: String,
    /// Material name, e.g. `"NbMoTaW"`.
    pub material: String,
    /// Material-registry key of the producing run (e.g. `"nbmotaw"`,
    /// `"crconi"`), so one serving fleet can host several alloys side by
    /// side and clients can filter `/v1/artifacts` by system. Empty for
    /// artifacts written before the material layer existed.
    pub material_key: String,
    /// Lattice structure name: `"bcc"`, `"fcc"`, or `"sc"`.
    pub structure: String,
    /// Supercell edge length (unit cells).
    pub l: usize,
    /// Number of lattice sites.
    pub num_sites: usize,
    /// Species names, index-aligned with the run's species set.
    pub species: Vec<String>,
    /// Per-species site counts (fractions follow by division).
    pub counts: Vec<usize>,
    /// Master RNG seed of the producing run.
    pub seed: u64,
    /// Neighbor shells the energy model used.
    pub num_shells: usize,
    /// Sweeps per walker the run executed.
    pub sweeps: u64,
    /// Whether every walker converged.
    pub converged: bool,
}

impl ArtifactManifest {
    /// The conventional registry key for a run: `material-lN-seedS`,
    /// lowercased.
    pub fn conventional_id(material: &str, l: usize, seed: u64) -> String {
        format!("{}-l{l}-seed{seed}", material.to_lowercase())
    }

    /// Per-species fractions.
    pub fn fractions(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.num_sites.max(1) as f64)
            .collect()
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let field = |out: &mut String, key: &str, first: bool| {
            if !first {
                out.push(',');
            }
            push_json_string(out, key);
            out.push(':');
        };
        field(&mut s, "id", true);
        push_json_string(&mut s, &self.id);
        field(&mut s, "material", false);
        push_json_string(&mut s, &self.material);
        field(&mut s, "material_key", false);
        push_json_string(&mut s, &self.material_key);
        field(&mut s, "structure", false);
        push_json_string(&mut s, &self.structure);
        field(&mut s, "l", false);
        s.push_str(&self.l.to_string());
        field(&mut s, "num_sites", false);
        s.push_str(&self.num_sites.to_string());
        field(&mut s, "species", false);
        s.push('[');
        for (i, name) in self.species.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, name);
        }
        s.push(']');
        field(&mut s, "counts", false);
        s.push('[');
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s.push(']');
        field(&mut s, "seed", false);
        s.push_str(&self.seed.to_string());
        field(&mut s, "num_shells", false);
        s.push_str(&self.num_shells.to_string());
        field(&mut s, "sweeps", false);
        s.push_str(&self.sweeps.to_string());
        field(&mut s, "converged", false);
        s.push_str(if self.converged { "true" } else { "false" });
        s.push('}');
        s
    }

    /// Parse a manifest written by [`ArtifactManifest::to_json`].
    ///
    /// # Errors
    /// A human-readable description of the first missing or mistyped
    /// field.
    pub fn from_json(text: &str) -> Result<ArtifactManifest, String> {
        let v = parse_json(text).map_err(|e| e.to_string())?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let int_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        let species = v
            .get("species")
            .and_then(JsonValue::as_array)
            .ok_or("missing species array")?
            .iter()
            .map(|e| e.as_str().map(str::to_string).ok_or("non-string species"))
            .collect::<Result<Vec<_>, _>>()?;
        let counts = v
            .get("counts")
            .and_then(JsonValue::as_array)
            .ok_or("missing counts array")?
            .iter()
            .map(|e| {
                e.as_u64()
                    .map(|c| c as usize)
                    .ok_or("non-integer species count")
            })
            .collect::<Result<Vec<_>, _>>()?;
        if species.len() != counts.len() {
            return Err(format!(
                "species/counts length mismatch ({} vs {})",
                species.len(),
                counts.len()
            ));
        }
        Ok(ArtifactManifest {
            id: str_field("id")?,
            material: str_field("material")?,
            // Optional for artifacts written before the material layer.
            material_key: v
                .get("material_key")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            structure: str_field("structure")?,
            l: int_field("l")? as usize,
            num_sites: int_field("num_sites")? as usize,
            species,
            counts,
            seed: int_field("seed")?,
            num_shells: int_field("num_shells")? as usize,
            sweeps: int_field("sweeps")?,
            converged: v
                .get("converged")
                .and_then(JsonValue::as_bool)
                .ok_or("missing or non-boolean field \"converged\"")?,
        })
    }
}

/// One converged run, loaded for serving: the manifest plus every
/// derived view the endpoints need precomputed.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Identity and provenance.
    pub manifest: ArtifactManifest,
    /// The energy grid the DOS is binned on.
    pub grid: EnergyGrid,
    /// Per-bin `ln g` over the full grid (unvisited bins hold whatever
    /// the producing run left there; consult `mask`).
    pub ln_g: Vec<f64>,
    /// Ever-visited mask, bin-aligned with `ln_g`.
    pub mask: Vec<bool>,
    /// Microcanonical SRO accumulator, when the run recorded one.
    pub sro: Option<MicrocanonicalAccumulator>,
    /// Serialized surrogate model text (`dtsur v1`), when present.
    pub surrogate_text: Option<String>,
}

impl Artifact {
    /// Visited `(energies, ln_g)` pairs ([`EnergyGrid::visited_dos`]) —
    /// the exact inputs `DeepThermo::evaluate` feeds `canonical_curve`.
    pub fn visited_dos(&self) -> (Vec<f64>, Vec<f64>) {
        self.grid.visited_dos(&self.ln_g, &self.mask)
    }

    /// Full-grid `(energies, ln_g)` with unvisited bins at `-inf`
    /// ([`EnergyGrid::masked_dos`]) — the exact inputs the pipeline feeds
    /// `canonical_average` for SRO.
    pub fn grid_dos_masked(&self) -> (Vec<f64>, Vec<f64>) {
        self.grid.masked_dos(&self.ln_g, &self.mask)
    }

    /// Write this artifact into `registry_dir/<id>/`, creating or
    /// overwriting the directory. Returns the artifact directory.
    ///
    /// # Errors
    /// [`ServeError::Io`] when any file cannot be written.
    pub fn save(&self, registry_dir: impl AsRef<Path>) -> Result<PathBuf, ServeError> {
        let dir = registry_dir.as_ref().join(&self.manifest.id);
        let io_err = |path: &Path, e: std::io::Error| ServeError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;

        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, self.manifest.to_json())
            .map_err(|e| io_err(&manifest_path, e))?;

        let dos_path = dir.join("dos.dat");
        std::fs::write(&dos_path, encode_dos(&self.grid, &self.ln_g, &self.mask))
            .map_err(|e| io_err(&dos_path, e))?;

        if let Some(sro) = &self.sro {
            let sro_path = dir.join("sro.dat");
            std::fs::write(&sro_path, encode_sro(sro)).map_err(|e| io_err(&sro_path, e))?;
        }

        if let Some(text) = &self.surrogate_text {
            let sur_path = dir.join("surrogate.dtsur");
            std::fs::write(&sur_path, text).map_err(|e| io_err(&sur_path, e))?;
        }
        Ok(dir)
    }

    /// Load an artifact directory written by [`Artifact::save`].
    ///
    /// # Errors
    /// [`ServeError::Io`] for unreadable files, [`ServeError::BadArtifact`]
    /// for structurally invalid contents.
    pub fn load(dir: impl AsRef<Path>) -> Result<Artifact, ServeError> {
        let dir = dir.as_ref();
        let bad = |name: &str, what: String| ServeError::BadArtifact {
            path: dir.join(name),
            what,
        };
        let io_err = |name: &str, e: std::io::Error| ServeError::Io {
            path: dir.join(name),
            message: e.to_string(),
        };
        let read =
            |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| io_err(name, e));
        // `Ok(None)` only when the file does not exist.
        let read_optional = |name: &str| match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(name, e)),
        };

        let manifest = ArtifactManifest::from_json(&read("manifest.json")?)
            .map_err(|what| bad("manifest.json", what))?;
        let (grid, ln_g, mask) =
            decode_dos(&read("dos.dat")?).map_err(|e| bad("dos.dat", e.to_string()))?;
        let sro = read_optional("sro.dat")?
            .map(|text| decode_sro(&text).map_err(|e| bad("sro.dat", e.to_string())))
            .transpose()?;
        let surrogate_text = read_optional("surrogate.dtsur")?;
        if let Some(text) = &surrogate_text {
            // Validate eagerly so a corrupt model is a load-time error,
            // not a 500 on the first /v1/predict.
            dt_surrogate::SurrogateModel::load(text)
                .map_err(|e| bad("surrogate.dtsur", e.to_string()))?;
        }

        Ok(Artifact {
            manifest,
            grid,
            ln_g,
            mask,
            sro,
            surrogate_text,
        })
    }
}

/// Encode `dos.dat` (`dtdos v1`): the energy grid, then one
/// `<ln g bits> <visited 0|1>` row per bin.
pub fn encode_dos(grid: &EnergyGrid, ln_g: &[f64], mask: &[bool]) -> String {
    let mut w = Writer::new("dtdos", 1);
    w.line("grid")
        .hex_f64(grid.e_min())
        .hex_f64(grid.e_max())
        .dec(grid.num_bins());
    for (&lg, &visited) in ln_g.iter().zip(mask) {
        w.row().hex_f64(lg).flag(visited);
    }
    w.finish()
}

/// What `dos.dat` holds: `(grid, ln g per bin, visited mask)`.
pub type Dos = (EnergyGrid, Vec<f64>, Vec<bool>);

/// Decode [`encode_dos`] output.
///
/// # Errors
/// The first structural problem: a [`dt_codec::TextError`], or a grid or row count
/// that cannot be.
pub fn decode_dos(text: &str) -> Result<Dos, Box<dyn Error>> {
    let mut r = Reader::new(text, "dtdos", &[1])?;
    r.line("grid")?;
    let (e_min, e_max) = (r.hex_f64("grid e_min")?, r.hex_f64("grid e_max")?);
    let num_bins: usize = r.dec("bin count")?;
    let (mut ln_g, mut mask) = (Vec::new(), Vec::new());
    while !r.at_end() {
        ln_g.push(r.row()?.hex_f64("ln g bits")?);
        mask.push(r.flag("mask flag")?);
    }
    let grid_ordered = e_max.partial_cmp(&e_min) == Some(std::cmp::Ordering::Greater);
    if !grid_ordered || num_bins == 0 {
        return Err(format!("degenerate grid [{e_min}, {e_max}] with {num_bins} bins").into());
    }
    if ln_g.len() != num_bins {
        return Err(format!("expected {num_bins} bins, found {}", ln_g.len()).into());
    }
    Ok((EnergyGrid::new(e_min, e_max, num_bins), ln_g, mask))
}

/// Encode `sro.dat` (`dtsro v1`): the accumulator shape, then one
/// `<count> <sum bits>…` row per bin.
pub fn encode_sro(sro: &MicrocanonicalAccumulator) -> String {
    let mut w = Writer::new("dtsro", 1);
    w.line("shape").dec(sro.num_bins()).dec(sro.obs_dim());
    for bin in 0..sro.num_bins() {
        let (sums, count) = sro.bin_data(bin);
        w.row().dec(count).hex_f64s(sums);
    }
    w.finish()
}

/// Decode [`encode_sro`] output.
///
/// # Errors
/// The first structural problem: a [`dt_codec::TextError`], or a shape the rows do
/// not fill.
pub fn decode_sro(text: &str) -> Result<MicrocanonicalAccumulator, Box<dyn Error>> {
    let mut r = Reader::new(text, "dtsro", &[1])?;
    let [bins, obs_dim]: [usize; 2] = r.line("shape")?.decs("shape")?;
    // Rows are collected before the accumulator is sized, so memory
    // follows the file's length and never just the shape it claims.
    let mut rows: Vec<(u64, Vec<f64>)> = Vec::new();
    while !r.at_end() {
        let count = r.row()?.dec("bin count")?;
        rows.push((count, r.rest_with("sum bits", Reader::hex_f64)?));
    }
    if bins == 0 || obs_dim == 0 {
        return Err(format!("degenerate shape {bins} x {obs_dim}").into());
    }
    if rows.len() != bins || rows.iter().any(|(_, sums)| sums.len() != obs_dim) {
        let found = rows.len();
        return Err(format!("expected {bins} rows of {obs_dim} sums, found {found}").into());
    }
    let mut acc = MicrocanonicalAccumulator::new(bins, obs_dim);
    for (bin, (count, sums)) in rows.iter().enumerate() {
        acc.record_sum(bin, sums, *count);
    }
    Ok(acc)
}

/// Every artifact under one registry directory, loaded into memory and
/// keyed by artifact id.
#[derive(Debug, Clone, Default)]
pub struct ArtifactRegistry {
    artifacts: BTreeMap<String, Artifact>,
}

impl ArtifactRegistry {
    /// An empty in-memory registry (tests, fixtures).
    pub fn new() -> Self {
        ArtifactRegistry::default()
    }

    /// Load every artifact subdirectory of `dir`. Entries without a
    /// `manifest.json` are skipped (scratch files, editor droppings); a
    /// directory *with* a manifest that fails to load is an error.
    ///
    /// # Errors
    /// [`ServeError::Io`] when `dir` is unreadable, or any artifact
    /// load error.
    pub fn open(dir: impl AsRef<Path>) -> Result<ArtifactRegistry, ServeError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir).map_err(|e| ServeError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let mut registry = ArtifactRegistry::new();
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::Io {
                path: dir.to_path_buf(),
                message: e.to_string(),
            })?;
            let path = entry.path();
            if !path.is_dir() || !path.join("manifest.json").is_file() {
                continue;
            }
            let artifact = Artifact::load(&path)?;
            registry.insert(artifact);
        }
        Ok(registry)
    }

    /// Add (or replace) an artifact under its manifest id.
    pub fn insert(&mut self, artifact: Artifact) {
        self.artifacts
            .insert(artifact.manifest.id.clone(), artifact);
    }

    /// The artifact with this id.
    pub fn get(&self, id: &str) -> Option<&Artifact> {
        self.artifacts.get(id)
    }

    /// All artifact ids, sorted.
    pub fn ids(&self) -> Vec<&str> {
        self.artifacts.keys().map(String::as_str).collect()
    }

    /// All artifacts, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Artifact> {
        self.artifacts.values()
    }

    /// Keep only the artifacts whose id satisfies `keep` — how a shard
    /// restricts a fully loaded registry to its hash-ring slice.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.artifacts.retain(|id, _| keep(id));
    }

    /// Number of artifacts.
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtserve-artifact-{tag}-{}", std::process::id()))
    }

    #[test]
    fn manifest_json_round_trips() {
        let m = fixture::fixture_artifact("rt").manifest;
        let back = ArtifactManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
        dt_telemetry::validate_json(&m.to_json()).unwrap();
    }

    #[test]
    fn manifest_rejects_missing_fields() {
        assert!(ArtifactManifest::from_json("{}").is_err());
        assert!(ArtifactManifest::from_json("not json").is_err());
        let m = fixture::fixture_artifact("rj").manifest;
        let broken = m.to_json().replace("\"seed\"", "\"sneed\"");
        assert!(ArtifactManifest::from_json(&broken)
            .unwrap_err()
            .contains("seed"));
    }

    #[test]
    fn artifact_save_load_round_trips_bit_exactly() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let art = fixture::fixture_artifact("roundtrip");
        art.save(&dir).unwrap();
        let back = Artifact::load(dir.join(&art.manifest.id)).unwrap();
        assert_eq!(back.manifest, art.manifest);
        assert_eq!(back.mask, art.mask);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.ln_g), bits(&art.ln_g));
        assert_eq!(back.grid.e_min().to_bits(), art.grid.e_min().to_bits());
        assert_eq!(back.grid.e_max().to_bits(), art.grid.e_max().to_bits());
        assert_eq!(back.grid.num_bins(), art.grid.num_bins());
        // Accumulator round-trips through record_sum bit-exactly.
        let (a, b) = (art.sro.as_ref().unwrap(), back.sro.as_ref().unwrap());
        assert_eq!(a.num_bins(), b.num_bins());
        for bin in 0..a.num_bins() {
            let (sa, ca) = a.bin_data(bin);
            let (sb, cb) = b.bin_data(bin);
            assert_eq!(ca, cb);
            assert_eq!(bits(sa), bits(sb));
        }
        assert_eq!(back.surrogate_text, art.surrogate_text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_scans_a_directory_and_skips_strays() {
        let dir = tmp("scan");
        let _ = std::fs::remove_dir_all(&dir);
        let a = fixture::fixture_artifact("scan-a");
        let b = fixture::fixture_artifact("scan-b");
        a.save(&dir).unwrap();
        b.save(&dir).unwrap();
        // Stray entries a registry must tolerate.
        std::fs::create_dir_all(dir.join("not-an-artifact")).unwrap();
        std::fs::write(dir.join("README.txt"), "scratch").unwrap();
        let reg = ArtifactRegistry::open(&dir).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(reg.get(&a.manifest.id).is_some());
        assert!(reg.get(&b.manifest.id).is_some());
        assert!(reg.get("unknown").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dos_and_sro_text_reject_what_the_encoders_never_write() {
        let art = fixture::fixture_artifact("strict");
        let dos = encode_dos(&art.grid, &art.ln_g, &art.mask);
        let (grid, ln_g, mask) = decode_dos(&dos).unwrap();
        assert_eq!((grid, ln_g, mask), (art.grid, art.ln_g, art.mask));
        // The visited flag is 0 or 1, and `ln g` is all sixteen digits.
        let first_row = dos.lines().nth(2).unwrap();
        assert!(decode_dos(&dos.replacen(" 0\n", " 2\n", 1)).is_err());
        assert!(decode_dos(&dos.replacen(first_row, &first_row[1..], 1)).is_err());
        assert!(decode_dos(&dos.replacen("\n", " extra\n", 2)).is_err());

        let sro = encode_sro(art.sro.as_ref().unwrap());
        assert_eq!(&decode_sro(&sro).unwrap(), art.sro.as_ref().unwrap());
        // A shape the rows do not fill is refused without being allocated.
        let shape = sro.lines().nth(1).unwrap();
        let huge = "shape 99999999999 99999999";
        assert!(decode_sro(&sro.replacen(shape, huge, 1)).is_err());
    }

    #[test]
    fn corrupt_artifacts_are_load_errors_not_panics() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let art = fixture::fixture_artifact("corrupt");
        let adir = art.save(&dir).unwrap();

        // Truncated DOS: bin count disagrees with rows.
        let dos = std::fs::read_to_string(adir.join("dos.dat")).unwrap();
        let truncated: Vec<&str> = dos.lines().take(5).collect();
        std::fs::write(adir.join("dos.dat"), truncated.join("\n")).unwrap();
        assert!(matches!(
            Artifact::load(&adir),
            Err(ServeError::BadArtifact { .. })
        ));

        // Bad header.
        std::fs::write(adir.join("dos.dat"), "nonsense\n").unwrap();
        assert!(matches!(
            Artifact::load(&adir),
            Err(ServeError::BadArtifact { .. })
        ));

        // A registry containing the corrupt artifact refuses to open.
        assert!(ArtifactRegistry::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
