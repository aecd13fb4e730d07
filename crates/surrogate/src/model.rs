//! The trained surrogate energy model.

use dt_codec::text::{Reader, Writer};
use dt_codec::TextError;
use dt_hamiltonian::{DeltaWorkspace, EnergyModel};
use dt_lattice::{Configuration, NeighborTable, SiteId, Species};
use dt_nn::{mse_loss, Activation, Adam, ForwardScratch, Matrix, Mlp, NnFormatError, TrainScratch};
use rand::Rng;

use crate::dataset::Dataset;
use crate::descriptor::PairCorrelationDescriptor;
use crate::metrics::{mae, r_squared, rmse};

/// Errors from [`SurrogateModel::load`] and [`SurrogateModel::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The `dtsur` header line is missing or names an unknown version.
    BadHeader,
    /// A required structural line is absent.
    MissingField(&'static str),
    /// A structural line is present but unparseable.
    BadField(&'static str),
    /// The embedded network's input width does not match the descriptor.
    DimensionMismatch {
        /// Input dimension of the deserialized network.
        net_in: usize,
        /// Feature dimension implied by the descriptor line.
        descriptor: usize,
    },
    /// The embedded network does not output one energy per row.
    OutputWidth {
        /// Output dimension of the deserialized network.
        net_out: usize,
    },
    /// The embedded network failed to deserialize.
    Net(NnFormatError),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::BadHeader => write!(f, "bad surrogate header"),
            SerializeError::MissingField(what) => write!(f, "missing {what}"),
            SerializeError::BadField(what) => write!(f, "unparseable {what}"),
            SerializeError::DimensionMismatch { net_in, descriptor } => write!(
                f,
                "network input dim {net_in} does not match descriptor dim {descriptor}"
            ),
            SerializeError::OutputWidth { net_out } => {
                write!(f, "network output dim {net_out} is not 1")
            }
            SerializeError::Net(e) => write!(f, "embedded network: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TextError> for SerializeError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::Malformed { what, .. } => SerializeError::BadField(what),
            _ => SerializeError::BadHeader,
        }
    }
}

impl From<NnFormatError> for SerializeError {
    fn from(e: NnFormatError) -> Self {
        SerializeError::Net(e)
    }
}

/// Hyperparameters for surrogate training.
#[derive(Debug, Clone)]
pub struct TrainingOptions {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs (full-batch).
    pub epochs: usize,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            hidden: vec![64, 64],
            lr: 3e-3,
            epochs: 400,
        }
    }
}

/// Accuracy summary after training (experiment E1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-site MAE on the training split (eV/site).
    pub train_mae: f64,
    /// Per-site MAE on the test split (eV/site).
    pub test_mae: f64,
    /// Test RMSE (eV/site).
    pub test_rmse: f64,
    /// Test R².
    pub test_r2: f64,
    /// Final training loss (normalized units).
    pub final_loss: f64,
}

/// A trained deep-learning energy surrogate.
///
/// Implements [`EnergyModel`], so every sampler in the workspace (WL,
/// REWL, Metropolis, parallel tempering) runs on it unmodified — the
/// paper's architecture, where the MC loop only ever sees the DL
/// potential. Incremental deltas use the O(k·z) descriptor update plus two
/// network evaluations; the descriptor base is recomputed per call
/// (O(N·z)), which is exact and fast enough for the supercells the
/// examples sample on.
#[derive(Debug, Clone)]
pub struct SurrogateModel {
    descriptor: PairCorrelationDescriptor,
    net: Mlp,
    /// Target normalization: per-site energies are standardized during
    /// training.
    y_mean: f64,
    y_std: f64,
}

impl SurrogateModel {
    /// Train a surrogate on a dataset of per-site energies.
    pub fn train<R: Rng + ?Sized>(
        descriptor: PairCorrelationDescriptor,
        train: &Dataset,
        test: &Dataset,
        opts: &TrainingOptions,
        rng: &mut R,
    ) -> (SurrogateModel, TrainReport) {
        assert!(!train.is_empty() && !test.is_empty());
        let dim = descriptor.dim();
        assert_eq!(train.x.cols(), dim);

        // Standardize targets.
        let n = train.len() as f64;
        let y_mean = train.y.data().iter().sum::<f64>() / n;
        let var = train
            .y
            .data()
            .iter()
            .map(|&y| (y - y_mean) * (y - y_mean))
            .sum::<f64>()
            / n;
        let y_std = var.sqrt().max(1e-12);
        let y_norm = train.y.map(|y| (y - y_mean) / y_std);

        let mut dims = vec![dim];
        dims.extend_from_slice(&opts.hidden);
        dims.push(1);
        let mut net = Mlp::new(&dims, Activation::Tanh, Activation::Identity, rng);
        let mut adam = Adam::with_lr(opts.lr);
        // Full batch: one `dt-nn` training step per epoch.
        let (x, rows) = (train.x.data(), train.len());
        let mut scratch = TrainScratch::new();
        let mut grad = vec![0.0; rows];
        let mut final_loss = f64::INFINITY;
        for _ in 0..opts.epochs {
            let out = net.forward_train(x, rows, &mut scratch);
            final_loss = mse_loss(out, y_norm.data(), &mut grad);
            net.zero_grad();
            net.backward(x, &grad, &mut scratch);
            net.clip_grad_norm(10.0);
            adam.step(&mut net);
        }

        let model = SurrogateModel {
            descriptor,
            net,
            y_mean,
            y_std,
        };
        let pred_train = model.predict_rows(&train.x);
        let pred_test = model.predict_rows(&test.x);
        let report = TrainReport {
            train_mae: mae(&pred_train, train.y.data()),
            test_mae: mae(&pred_test, test.y.data()),
            test_rmse: rmse(&pred_test, test.y.data()),
            test_r2: r_squared(&pred_test, test.y.data()),
            final_loss,
        };
        (model, report)
    }

    /// The descriptor this model consumes.
    pub fn descriptor(&self) -> PairCorrelationDescriptor {
        self.descriptor
    }

    /// The underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Per-site energy prediction from a feature vector.
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        let out = self.net.forward(&Matrix::row_vector(features));
        out.data()[0] * self.y_std + self.y_mean
    }

    /// Per-site energy predictions for a feature matrix.
    ///
    /// Runs one batched forward over all rows on the `dt-nn` inference
    /// engine. Allocates a fresh scratch; callers on a hot loop should
    /// hold a [`ForwardScratch`] and use
    /// [`SurrogateModel::predict_rows_with`] instead.
    pub fn predict_rows(&self, x: &Matrix) -> Vec<f64> {
        let mut scratch = ForwardScratch::for_mlp(&self.net, x.rows());
        let mut out = Vec::with_capacity(x.rows());
        self.predict_rows_with(x.data(), x.rows(), &mut scratch, &mut out);
        out
    }

    /// A scratch sized for batched prediction of up to `max_rows` rows.
    pub fn forward_scratch(&self, max_rows: usize) -> ForwardScratch {
        ForwardScratch::for_mlp(&self.net, max_rows)
    }

    /// Per-site energy predictions for `rows` feature rows stored
    /// row-major in `x`, written into `out` through a caller-provided
    /// scratch — allocation-free once both are warm.
    pub fn predict_rows_with(
        &self,
        x: &[f64],
        rows: usize,
        scratch: &mut ForwardScratch,
        out: &mut Vec<f64>,
    ) {
        let pred = self.net.forward_into(x, rows, scratch);
        out.clear();
        out.extend(pred.iter().map(|&v| v * self.y_std + self.y_mean));
    }

    /// Per-site energy of a configuration.
    pub fn predict_per_site(&self, config: &Configuration, neighbors: &NeighborTable) -> f64 {
        self.predict_features(&self.descriptor.compute(config, neighbors))
    }

    /// Assemble a model from an already trained network and its target
    /// normalization.
    ///
    /// # Errors
    /// [`SerializeError::DimensionMismatch`] when the network's input
    /// width is not the descriptor's feature count, and
    /// [`SerializeError::OutputWidth`] when it outputs more or less than
    /// one value per row.
    pub fn from_parts(
        descriptor: PairCorrelationDescriptor,
        net: Mlp,
        y_mean: f64,
        y_std: f64,
    ) -> Result<SurrogateModel, SerializeError> {
        // `dim()` is at least either count, so counts above the network's
        // width are a mismatch already — decided before `dim()` could
        // overflow on what a hostile file claims.
        let width = net.in_dim();
        let counts_fit = descriptor.num_species.max(descriptor.num_shells) <= width;
        let dim = if counts_fit {
            descriptor.dim()
        } else {
            usize::MAX
        };
        if dim != width {
            return Err(SerializeError::DimensionMismatch {
                net_in: width,
                descriptor: dim,
            });
        }
        if net.out_dim() != 1 {
            return Err(SerializeError::OutputWidth {
                net_out: net.out_dim(),
            });
        }
        Ok(SurrogateModel {
            descriptor,
            net,
            y_mean,
            y_std,
        })
    }

    /// Serialize to a versioned text format (descriptor layout, target
    /// normalization, embedded network). Lossless: restored models predict
    /// bit-identically.
    pub fn save(&self) -> String {
        let mut w = Writer::new("dtsur", 1);
        w.line("desc")
            .dec(self.descriptor.num_species)
            .dec(self.descriptor.num_shells);
        w.line("norm").hex_f64(self.y_mean).hex_f64(self.y_std);
        w.embed(&dt_nn::save_mlp(&self.net));
        w.finish()
    }

    /// Restore a model written by [`SurrogateModel::save`].
    ///
    /// # Errors
    /// Returns a [`SerializeError`] describing the first structural or
    /// encoding problem encountered.
    pub fn load(text: &str) -> Result<SurrogateModel, SerializeError> {
        // A line that is absent is a missing field; one that is there but
        // wrong is a bad one.
        let line_err = |what| {
            move |e| match e {
                TextError::Truncated => SerializeError::MissingField(what),
                _ => SerializeError::BadField(what),
            }
        };
        let mut r = Reader::new(text, "dtsur", &[1])?;
        r.line("desc").map_err(line_err("desc line"))?;
        let descriptor = PairCorrelationDescriptor {
            num_species: r.dec("num_species")?,
            num_shells: r.dec("num_shells")?,
        };
        r.line("norm").map_err(line_err("norm line"))?;
        let y_mean = r.hex_f64("normalization bits")?;
        let y_std = r.hex_f64("normalization bits")?;
        let net = dt_nn::load_mlp(r.rest())?;
        SurrogateModel::from_parts(descriptor, net, y_mean, y_std)
    }

    fn delta_via_features(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        moves: &[(SiteId, Species)],
    ) -> f64 {
        // Before/after descriptors stacked into a 2-row batch so the
        // network runs ONCE per delta instead of twice; bit-identical to
        // two batch-1 passes (see the dt-nn equivalence suite). The
        // scratch is thread-local because `EnergyModel` deltas take
        // `&self` on the swap path.
        thread_local! {
            static SCRATCH: std::cell::RefCell<(ForwardScratch, Vec<f64>)> =
                std::cell::RefCell::default();
        }
        let base = self.descriptor.compute(config, neighbors);
        let delta = self.descriptor.delta(config, neighbors, moves);
        let n = config.num_sites() as f64;
        SCRATCH.with(|cell| {
            let (scratch, x2) = &mut *cell.borrow_mut();
            x2.clear();
            x2.extend_from_slice(&base);
            x2.extend(base.iter().zip(&delta).map(|(&b, &d)| b + d));
            let out = self.net.forward_into(x2, 2, scratch);
            let before = out[0] * self.y_std + self.y_mean;
            let after = out[1] * self.y_std + self.y_mean;
            (after - before) * n
        })
    }
}

impl EnergyModel for SurrogateModel {
    fn num_species(&self) -> usize {
        self.descriptor.num_species
    }

    fn num_shells(&self) -> usize {
        self.descriptor.num_shells
    }

    fn total_energy(&self, config: &Configuration, neighbors: &NeighborTable) -> f64 {
        self.predict_per_site(config, neighbors) * config.num_sites() as f64
    }

    fn swap_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        a: SiteId,
        b: SiteId,
    ) -> f64 {
        let sa = config.species_at(a);
        let sb = config.species_at(b);
        if a == b || sa == sb {
            return 0.0;
        }
        self.delta_via_features(config, neighbors, &[(a, sb), (b, sa)])
    }

    fn reassign_delta(
        &self,
        config: &Configuration,
        neighbors: &NeighborTable,
        moves: &[(SiteId, Species)],
        _workspace: &mut DeltaWorkspace,
    ) -> f64 {
        if moves.is_empty() {
            return 0.0;
        }
        self.delta_via_features(config, neighbors, moves)
    }

    fn energy_lower_bound(&self, neighbors: &NeighborTable) -> f64 {
        // Network outputs are bounded by the tanh hidden layers only
        // weakly; use a generous multiple of the training scale.
        let n = neighbors.num_sites() as f64;
        (self.y_mean - 50.0 * self.y_std) * n
    }

    fn energy_upper_bound(&self, neighbors: &NeighborTable) -> f64 {
        let n = neighbors.num_sites() as f64;
        (self.y_mean + 50.0 * self.y_std) * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SamplingStrategy;
    use dt_hamiltonian::nbmotaw;
    use dt_lattice::{Composition, Structure, Supercell};
    use rand::{RngExt, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn trained() -> (SurrogateModel, TrainReport, NeighborTable, Composition) {
        let cell = Supercell::cubic(Structure::bcc(), 3);
        let nt = cell.neighbor_table(2);
        let comp = Composition::equiatomic(4, cell.num_sites()).unwrap();
        let h = nbmotaw();
        let d = PairCorrelationDescriptor {
            num_species: 4,
            num_shells: 2,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ds = Dataset::generate(&h, &nt, &comp, d, 256, SamplingStrategy::Annealed, &mut rng);
        let (train, test) = ds.split(0.8);
        let (model, report) = SurrogateModel::train(
            d,
            &train,
            &test,
            &TrainingOptions {
                hidden: vec![32, 32],
                lr: 3e-3,
                epochs: 600,
            },
            &mut rng,
        );
        (model, report, nt, comp)
    }

    #[test]
    fn surrogate_learns_the_pair_hamiltonian_accurately() {
        let (_, report, _, _) = trained();
        // The descriptor is a sufficient statistic for the EPI model, so
        // the fit should be tight: MAE well under k_B·300 K ≈ 26 meV.
        assert!(
            report.test_mae < 0.005,
            "test MAE {} eV/site",
            report.test_mae
        );
        assert!(report.test_r2 > 0.95, "R² {}", report.test_r2);
        assert!(report.train_mae <= report.test_mae * 3.0);
    }

    #[test]
    fn energy_model_deltas_match_total_recompute() {
        let (model, _, nt, comp) = trained();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut config = Configuration::random(&comp, &mut rng);
        let mut ws = DeltaWorkspace::new(config.num_sites());
        for _ in 0..20 {
            let a = rng.random_range(0..config.num_sites()) as SiteId;
            let b = rng.random_range(0..config.num_sites()) as SiteId;
            let e0 = model.total_energy(&config, &nt);
            let d = model.swap_delta(&config, &nt, a, b);
            config.swap(a, b);
            let e1 = model.total_energy(&config, &nt);
            assert!(((e1 - e0) - d).abs() < 1e-8, "{} vs {d}", e1 - e0);
        }
        // Reassignment path.
        let moves = vec![(0 as SiteId, Species(1)), (5, Species(2)), (9, Species(0))];
        let e0 = model.total_energy(&config, &nt);
        let d = model.reassign_delta(&config, &nt, &moves, &mut ws);
        for &(s, sp) in &moves {
            config.set(s, sp);
        }
        let e1 = model.total_energy(&config, &nt);
        assert!(((e1 - e0) - d).abs() < 1e-8);
    }

    #[test]
    fn surrogate_tracks_truth_on_held_out_configs() {
        let (model, _, nt, comp) = trained();
        let h = nbmotaw();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..10 {
            let c = Configuration::random(&comp, &mut rng);
            let truth = h.total_energy(&c, &nt) / c.num_sites() as f64;
            let pred = model.predict_per_site(&c, &nt);
            assert!((truth - pred).abs() < 0.01, "pred {pred} vs truth {truth}");
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let (model, _, nt, comp) = trained();
        let text = model.save();
        let back = SurrogateModel::load(&text).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..5 {
            let c = Configuration::random(&comp, &mut rng);
            assert_eq!(
                model.predict_per_site(&c, &nt).to_bits(),
                back.predict_per_site(&c, &nt).to_bits(),
                "restored model must predict bit-identically"
            );
        }
    }

    #[test]
    fn load_rejects_corruption_with_typed_errors() {
        let (model, _, _, _) = trained();
        assert_eq!(
            SurrogateModel::load("garbage").unwrap_err(),
            SerializeError::BadHeader
        );
        assert_eq!(
            SurrogateModel::load("dtsur v1").unwrap_err(),
            SerializeError::MissingField("desc line")
        );
        assert_eq!(
            SurrogateModel::load("dtsur v1\ndesc x 2\nnorm 0 0").unwrap_err(),
            SerializeError::BadField("num_species")
        );
        let text = model.save();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            SurrogateModel::load(&truncated).unwrap_err(),
            SerializeError::Net(_)
        ));
        let tampered = text.replacen("desc 4 2", "desc 3 2", 1);
        assert!(matches!(
            SurrogateModel::load(&tampered).unwrap_err(),
            SerializeError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn hostile_descriptor_counts_are_a_mismatch_not_an_overflow() {
        let (model, _, _, _) = trained();
        let huge = format!("desc {} {}", usize::MAX, usize::MAX);
        let tampered = model.save().replacen("desc 4 2", &huge, 1);
        assert!(matches!(
            SurrogateModel::load(&tampered).unwrap_err(),
            SerializeError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn rejects_a_network_that_is_not_scalar() {
        let (model, _, _, _) = trained();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let in_dim = model.descriptor().dim();
        let net = Mlp::new(
            &[in_dim, 4, 2],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        assert_eq!(
            SurrogateModel::from_parts(model.descriptor(), net.clone(), 0.0, 1.0).unwrap_err(),
            SerializeError::OutputWidth { net_out: 2 }
        );
        // The same network embedded in a served artifact's text.
        let text = model.save();
        let start = text.find("dtnn v").expect("embedded network");
        let tampered = format!("{}{}", &text[..start], dt_nn::save_mlp(&net));
        assert_eq!(
            SurrogateModel::load(&tampered).unwrap_err(),
            SerializeError::OutputWidth { net_out: 2 }
        );
    }

    #[test]
    fn bounds_bracket_predictions() {
        let (model, _, nt, comp) = trained();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let c = Configuration::random(&comp, &mut rng);
        let e = model.total_energy(&c, &nt);
        assert!(e > model.energy_lower_bound(&nt));
        assert!(e < model.energy_upper_bound(&nt));
    }
}
