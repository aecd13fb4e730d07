//! Synthetic artifacts for tests and benchmarks.
//!
//! A real artifact takes a converged REWL run to produce; tests and the
//! load generators (`bench_e2e`'s serve workloads, `experiments
//! bench_serve_sharded`) need one in milliseconds. The fixture
//! is a physically plausible stand-in: a smooth dome-shaped `ln g(E)`
//! over a BCC NbMoTaW supercell, a populated SRO accumulator, and a
//! small (untrained) surrogate network — enough to exercise every
//! endpoint, not enough to publish.

use dt_lattice::{Composition, Structure, Supercell};
use dt_nn::{Activation, Mlp};
use dt_surrogate::{PairCorrelationDescriptor, SurrogateModel};
use dt_thermo::MicrocanonicalAccumulator;
use dt_wanglandau::EnergyGrid;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::artifact::{Artifact, ArtifactManifest};

/// Build an in-memory fixture artifact with id `fixture-<tag>`.
pub fn fixture_artifact(tag: &str) -> Artifact {
    let l = 3;
    let num_species = 4;
    let num_shells = 2;
    let cell = Supercell::cubic(Structure::bcc(), l);
    let num_sites = cell.num_sites();
    let comp = Composition::equiatomic(num_species, num_sites).expect("fixture composition");

    let num_bins = 64;
    let grid = EnergyGrid::new(-5.0, 3.0, num_bins);
    // Dome-shaped ln g spanning ~60 ln-units, edges unvisited (as a
    // real flat-histogram run leaves them).
    let mid = (num_bins - 1) as f64 / 2.0;
    let mut ln_g = Vec::with_capacity(num_bins);
    let mut mask = Vec::with_capacity(num_bins);
    for b in 0..num_bins {
        let x = (b as f64 - mid) / mid;
        ln_g.push(60.0 * (1.0 - x * x));
        mask.push(b >= 2 && b < num_bins - 2);
    }

    // Directed pair probabilities per shell: the equiatomic baseline
    // 1/m² plus a bin-dependent ordering tendency on the Mo–Ta channel
    // (and its transpose), re-balanced on the diagonal so each shell
    // still sums to one.
    let m = num_species;
    let obs_dim = num_shells * m * m;
    let mut sro = MicrocanonicalAccumulator::new(num_bins, obs_dim);
    let base = 1.0 / (m * m) as f64;
    for (b, &visited) in mask.iter().enumerate() {
        if !visited {
            continue;
        }
        // Low-energy bins are ordered (strong Mo–Ta preference), high
        // bins random.
        let order = 0.5 * (1.0 - b as f64 / (num_bins - 1) as f64);
        let mut obs = vec![base; obs_dim];
        for shell in 0..num_shells {
            let o = shell * m * m;
            let bump = 0.04 * order;
            obs[o + m + 2] += bump; // (Mo, Ta)
            obs[o + 2 * m + 1] += bump; // (Ta, Mo)
            obs[o + m + 1] -= bump; // (Mo, Mo)
            obs[o + 2 * m + 2] -= bump; // (Ta, Ta)
        }
        sro.record(b, &obs);
        sro.record(b, &obs); // two samples so counts > 1 are exercised
    }

    // A small surrogate with deterministic (seeded) random weights:
    // untrained, but structurally identical to a trained model, and
    // load-validated like any artifact surrogate.
    let descriptor = PairCorrelationDescriptor {
        num_species,
        num_shells,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let net = Mlp::new(
        &[descriptor.dim(), 8, 1],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    let surrogate_text = SurrogateModel::from_parts(descriptor, net, -0.2, 0.05)
        .expect("fixture network is sized for its descriptor")
        .save();

    Artifact {
        manifest: ArtifactManifest {
            id: format!("fixture-{tag}"),
            material: "NbMoTaW".into(),
            material_key: "nbmotaw".into(),
            structure: "bcc".into(),
            l,
            num_sites,
            species: vec!["Nb".into(), "Mo".into(), "Ta".into(), "W".into()],
            counts: comp.counts().to_vec(),
            seed: 7,
            num_shells,
            sweeps: 0,
            converged: true,
        },
        grid,
        ln_g,
        mask,
        sro: Some(sro),
        surrogate_text: Some(surrogate_text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_internally_consistent() {
        let art = fixture_artifact("check");
        assert_eq!(art.ln_g.len(), art.grid.num_bins());
        assert_eq!(art.mask.len(), art.grid.num_bins());
        let (e, lg) = art.visited_dos();
        assert_eq!(e.len(), lg.len());
        assert!(e.len() > 10);
        // The fixture DOS must be servable: a canonical curve evaluates.
        let temps = dt_thermo::temperature_grid(300.0, 3000.0, 20);
        let curve =
            dt_thermo::try_canonical_curve(&e, &lg, &temps, dt_thermo::KB_EV_PER_K).unwrap();
        assert!(curve.iter().all(|p| p.u.is_finite() && p.cv >= 0.0));
        // And the SRO accumulator reweights without panicking.
        let (ge, glg) = art.grid_dos_masked();
        let mean = art.sro.as_ref().unwrap().canonical_average(
            &ge,
            &glg,
            1.0 / (dt_thermo::KB_EV_PER_K * 1000.0),
        );
        assert_eq!(mean.len(), 2 * 16);
        assert!(mean.iter().all(|v| v.is_finite()));
    }
}
