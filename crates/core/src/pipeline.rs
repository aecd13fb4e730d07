//! The DeepThermo pipeline: material → parallel sampling → thermodynamics.

use std::path::{Path, PathBuf};

use dt_hamiltonian::{EnergyModel, MaterialError, PairHamiltonian, KB_EV_PER_K};
use dt_hpc::{Communicator, Transport};
use dt_lattice::{Composition, NeighborTable, Species, Supercell};
use dt_proposal::MoveStats;
use dt_rewl::{run_rewl, run_rewl_on, RewlOutput};
use dt_thermo::{canonical_curve, find_cv_peak};
use dt_wanglandau::explore_energy_range;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::DeepThermoConfig;
use crate::error::DeepThermoError;
use crate::report::{DeepThermoReport, SroCurve};

/// A configured DeepThermo run: the material, its energy model, and the
/// sampling plan.
pub struct DeepThermo {
    cfg: DeepThermoConfig,
    neighbors: NeighborTable,
    comp: Composition,
    model: PairHamiltonian,
}

impl DeepThermo {
    /// The pipeline over the configured material's own EPI Hamiltonian
    /// and composition — the general entry point. The material can come
    /// from the registry or a `dtmat` file; nothing here assumes BCC,
    /// two shells, four species, or an equiatomic composition.
    ///
    /// # Errors
    /// [`DeepThermoError::Config`] when the configuration is
    /// inconsistent; [`DeepThermoError::Material`] when the structure
    /// cannot expose the requested shells or the composition ratios are
    /// invalid.
    pub fn from_material(cfg: DeepThermoConfig) -> Result<Self, DeepThermoError> {
        cfg.validate()?;
        let material = cfg.material.material();
        let model = material.hamiltonian().clone();
        let neighbors = Supercell::cubic(material.structure().clone(), cfg.material.l())
            .try_neighbor_table(model.num_shells())
            .map_err(MaterialError::from)?;
        let comp = cfg.material.composition()?;
        Ok(DeepThermo {
            cfg,
            neighbors,
            comp,
            model,
        })
    }

    /// The neighbor table.
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// The composition.
    pub fn composition(&self) -> &Composition {
        &self.comp
    }

    /// The energy model.
    pub fn model(&self) -> &PairHamiltonian {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &DeepThermoConfig {
        &self.cfg
    }

    /// Run the full pipeline: range discovery → REWL sampling → DOS
    /// normalization → thermodynamics + SRO curves.
    ///
    /// With `config().rewl.checkpoint` set the cluster snapshots itself
    /// into that directory and resumes from the newest consistent
    /// snapshot when one exists. Range discovery is seeded from the
    /// config, so a restarted run rebuilds the same windows and the
    /// snapshot stays valid.
    ///
    /// # Errors
    /// [`DeepThermoError::Io`] when the checkpoint directory cannot be
    /// created, [`DeepThermoError::Sampling`] when the parallel sampler
    /// fails (a lost rank, a checkpoint directory holding another run's
    /// snapshots), [`DeepThermoError::NoVisitedBins`] when it produces
    /// nothing to evaluate.
    pub fn run(&self) -> Result<DeepThermoReport, DeepThermoError> {
        self.create_checkpoint_dir()?;
        let range = self.discover_range();
        let out = run_rewl(
            &self.model,
            &self.neighbors,
            &self.comp,
            range,
            &self.cfg.rewl,
        )?;
        self.evaluate(out)
    }

    /// Create the configured checkpoint directory, so an unusable one
    /// fails the run instead of leaving it without snapshots.
    fn create_checkpoint_dir(&self) -> Result<(), DeepThermoError> {
        match &self.cfg.rewl.checkpoint {
            Some(spec) => std::fs::create_dir_all(&spec.dir).map_err(|e| io_error(&spec.dir, e)),
            None => Ok(()),
        }
    }

    /// Discover the reachable energy range by seeded quenches. The RNG
    /// is derived from the config seed alone, so every process of a
    /// multi-process cluster (and every restart of a checkpointed run)
    /// rebuilds the exact same windows.
    fn discover_range(&self) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.rewl.seed ^ 0x5eed);
        explore_energy_range(
            &self.model,
            &self.neighbors,
            &self.comp,
            self.cfg.range_quench_sweeps,
            self.cfg.range_pad,
            &mut rng,
        )
    }

    /// Run ONE rank of a multi-process cluster over a caller-supplied
    /// communicator — the per-process pipeline entry behind
    /// `deepthermo run --cluster tcp:<n>`. Every process performs the
    /// same seeded range discovery (no coordination needed), samples its
    /// rank via [`dt_rewl::run_rewl_on`], and then rank 0 — the gather
    /// root — evaluates the merged output into the usual report. All
    /// other ranks return `Ok(None)` once their pieces are shipped.
    ///
    /// Checkpointing honors `config().rewl.checkpoint` exactly as
    /// [`DeepThermo::run`] does: every rank snapshots into the shared
    /// directory and a rerun resumes from the newest consistent round.
    ///
    /// # Errors
    /// Everything [`DeepThermo::run`] can return; a rank lost during
    /// sampling fails every surviving rank with
    /// [`dt_rewl::RewlError::PeerLost`].
    pub fn run_cluster_rank<T: Transport>(
        &self,
        comm: Communicator<T>,
    ) -> Result<Option<DeepThermoReport>, DeepThermoError> {
        self.create_checkpoint_dir()?;
        let range = self.discover_range();
        let run = run_rewl_on(
            comm,
            &self.model,
            &self.neighbors,
            &self.comp,
            range,
            &self.cfg.rewl,
        )?;
        match run.output {
            Some(out) => self.evaluate(out).map(Some),
            None => Ok(None),
        }
    }

    /// Export a finished run into `registry_dir` in the `dt-serve`
    /// artifact-registry format, under the conventional id
    /// `material-lN-seedS`. The artifact carries the normalized
    /// `ln g(E)` with its visited mask and the microcanonical SRO
    /// accumulator, so `deepthermo serve` can answer thermo/SRO queries
    /// bit-identically to this report. Returns the artifact directory.
    ///
    /// # Errors
    /// [`DeepThermoError::Io`] when the registry directory cannot be
    /// written.
    pub fn export_artifact(
        &self,
        report: &DeepThermoReport,
        registry_dir: impl AsRef<Path>,
    ) -> Result<PathBuf, DeepThermoError> {
        let mat = self.cfg.material.material();
        let manifest = dt_serve::ArtifactManifest {
            id: dt_serve::ArtifactManifest::conventional_id(
                mat.display_name(),
                self.cfg.material.l(),
                self.cfg.rewl.seed,
            ),
            material: mat.display_name().to_string(),
            material_key: mat.key().to_string(),
            structure: mat.structure().name().to_string(),
            l: self.cfg.material.l(),
            num_sites: self.comp.num_sites(),
            species: mat
                .species()
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            counts: self.comp.counts().to_vec(),
            seed: self.cfg.rewl.seed,
            num_shells: mat.num_shells(),
            sweeps: report.sweeps,
            converged: report.converged,
        };
        let artifact = dt_serve::Artifact {
            manifest,
            grid: report.dos.grid().clone(),
            ln_g: (0..report.dos.grid().num_bins())
                .map(|b| report.dos.ln_g_bin(b))
                .collect(),
            mask: report.mask.clone(),
            sro: Some(report.sro.clone()),
            surrogate_text: None,
        };
        artifact
            .save(registry_dir.as_ref())
            .map_err(|e| io_error(registry_dir.as_ref(), e))
    }

    /// Turn a raw REWL output into the thermodynamic report (exposed so
    /// benchmarks can re-evaluate saved outputs).
    ///
    /// # Errors
    /// [`DeepThermoError::NoVisitedBins`] when the output visited no
    /// energy bins at all.
    pub fn evaluate(&self, out: RewlOutput) -> Result<DeepThermoReport, DeepThermoError> {
        let mut dos = out.dos.clone();
        dos.normalize_total(self.comp.ln_num_configurations(), Some(&out.mask));
        let ln_g_range = dos.ln_g_range(Some(&out.mask));

        // Visited (E, ln g) pairs drive every canonical sum.
        let (energies, ln_g) = dos.grid().visited_dos(dos.ln_g(), &out.mask);
        if energies.is_empty() {
            return Err(DeepThermoError::NoVisitedBins);
        }
        let thermo = canonical_curve(&energies, &ln_g, &self.cfg.temperatures, KB_EV_PER_K);
        let (tc, cv_peak) = find_cv_peak(&thermo);

        // SRO(T) for every unlike first-shell pair by canonical
        // reweighting of the microcanonical pair probabilities: one
        // reweighting per temperature serves every pair.
        let m = self.comp.num_species();
        let fractions = self.comp.fractions();
        let (grid_energies, grid_ln_g) = dos.grid().masked_dos(dos.ln_g(), &out.mask);
        let means: Vec<Vec<f64>> = self
            .cfg
            .temperatures
            .iter()
            .map(|&t| {
                let beta = 1.0 / (KB_EV_PER_K * t);
                out.sro.canonical_average(&grid_energies, &grid_ln_g, beta)
            })
            .collect();
        let mut sro_curves = Vec::new();
        for a in 0..m as u8 {
            for b in (a + 1)..m as u8 {
                let ca_cb = fractions[a as usize] * fractions[b as usize];
                let points = self
                    .cfg
                    .temperatures
                    .iter()
                    .zip(&means)
                    // First shell directed probability p(a, b).
                    .map(|(&t, mean)| (t, 1.0 - mean[a as usize * m + b as usize] / ca_cb))
                    .collect();
                let species = self.cfg.material.material().species();
                let label = format!("{}-{}", species.name(Species(a)), species.name(Species(b)));
                sro_curves.push(SroCurve {
                    shell: 0,
                    pair: (a, b),
                    label,
                    points,
                });
            }
        }

        let mut stats = MoveStats::new();
        for w in &out.windows {
            stats.merge(&w.stats);
        }
        Ok(DeepThermoReport {
            dos,
            mask: out.mask,
            ln_g_range,
            thermo,
            transition_temperature: tc,
            cv_peak,
            sro_curves,
            sro: out.sro,
            windows: out.windows,
            converged: out.converged,
            total_moves: out.total_moves,
            sweeps: out.sweeps,
            stats,
            lost_ranks: Vec::new(),
            resumed_from: out.resumed_from,
            restarts: 0,
            walkers_rebalanced: out.walkers_rebalanced,
            telemetry: out.telemetry,
        })
    }
}

fn io_error(path: &Path, e: impl std::fmt::Display) -> DeepThermoError {
    DeepThermoError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeepThermoConfig;

    #[test]
    fn quick_demo_runs_end_to_end() {
        let report = DeepThermo::from_material(DeepThermoConfig::quick_demo())
            .unwrap()
            .run()
            .unwrap();
        assert!(report.converged, "demo run should converge");
        // DOS range scales like N ln 4: for N=54, ≈ 75 ln-units; visited
        // bins exclude the extremes so expect a sizeable fraction.
        assert!(report.ln_g_range > 20.0, "ln g range {}", report.ln_g_range);
        // Physical sanity of the thermodynamic curve.
        assert!(report.thermo.iter().all(|p| p.cv >= 0.0));
        let u_cold = report.thermo.first().unwrap().u;
        let u_hot = report.thermo.last().unwrap().u;
        assert!(u_hot > u_cold, "energy must rise with temperature");
        // Mo-Ta must be the most strongly ordered pair at low T.
        let mo_ta = report
            .sro_curves
            .iter()
            .find(|c| c.label == "Mo-Ta")
            .expect("Mo-Ta curve");
        assert!(
            mo_ta.points.first().unwrap().1 < -0.1,
            "Mo-Ta SRO at low T: {}",
            mo_ta.points.first().unwrap().1
        );
    }

    #[test]
    fn resumable_run_writes_checkpoints() {
        let dir = std::env::temp_dir().join(format!("dtcore-resumable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DeepThermoConfig::quick_demo();
        cfg.rewl.checkpoint = Some(dt_rewl::CheckpointSpec::new(&dir));
        let report = DeepThermo::from_material(cfg).unwrap().run().unwrap();
        assert!(report.converged);
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 0,
            "resumable run must leave a snapshot behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exported_artifact_reproduces_the_report_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("dtcore-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner =
            DeepThermo::from_material(DeepThermoConfig::quick_demo().with_seed(11)).unwrap();
        let report = runner.run().unwrap();
        let adir = runner.export_artifact(&report, &dir).unwrap();

        let art = dt_serve::Artifact::load(&adir).unwrap();
        assert_eq!(art.manifest.material, "NbMoTaW");
        assert_eq!(art.manifest.seed, 11);
        assert_eq!(art.manifest.converged, report.converged);
        assert!(art.sro.is_some());

        // A thermo curve evaluated on the loaded artifact must be
        // bit-identical to the report's — the serving contract.
        let (e, lg) = art.visited_dos();
        let curve = canonical_curve(&e, &lg, &runner.config().temperatures, KB_EV_PER_K);
        assert_eq!(curve.len(), report.thermo.len());
        for (a, b) in curve.iter().zip(&report.thermo) {
            assert_eq!(a.t.to_bits(), b.t.to_bits());
            assert_eq!(a.u.to_bits(), b.u.to_bits());
            assert_eq!(a.cv.to_bits(), b.cv.to_bits());
            assert_eq!(a.f.to_bits(), b.f.to_bits());
            assert_eq!(a.s.to_bits(), b.s.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_csvs_are_well_formed() {
        let report = DeepThermo::from_material(DeepThermoConfig::quick_demo().with_seed(5))
            .unwrap()
            .run()
            .unwrap();
        let csv = report.thermo_csv();
        assert_eq!(csv.lines().count(), 61); // header + 60 temperatures
        assert!(report.dos_csv().lines().count() > 10);
        assert!(report.summary().contains("T_c"));
    }
}
