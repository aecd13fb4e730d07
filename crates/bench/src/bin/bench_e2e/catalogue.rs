//! The workloads and metrics this benchmark emits — one table, checked
//! against `BENCHMARK.json` by a unit test so the two cannot drift.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A measured value under the name the issue and the workload's users know
/// it by: `value = outcome.values[source] * scale`.
pub struct Native {
    pub source: &'static str,
    pub name: &'static str,
    pub unit: &'static str,
    pub scale: f64,
}

const fn native(
    source: &'static str,
    name: &'static str,
    unit: &'static str,
    scale: f64,
) -> Native {
    Native {
        source,
        name,
        unit,
        scale,
    }
}

/// `rewl_*`: an operation is one run to a converged density of states.
const REWL_NATIVE: &[Native] = &[
    native("op_time_ms", "time_to_dos_s", "s", 1e-3),
    native("ops_per_s", "moves_per_s", "1/s", 1.0),
];

/// `serve_*`: an operation is one HTTP request. `p50_ms` is measured and
/// printed but is no end-to-end metric of its own: in a closed loop of two
/// clients `req_per_s` is two over the mean latency, so it already gates
/// the middle of the distribution.
const SERVE_NATIVE: &[Native] = &[
    native("ops_per_s", "req_per_s", "1/s", 1.0),
    native("p50_ms", "p50_us", "us", 1e3),
    native("op_time_ms", "p99_us", "us", 1e3),
];

/// One workload: a set of inputs, and why it exists.
pub struct Workload {
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// The generic end-to-end metrics under this workload's own names.
    pub native: &'static [Native],
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rewl_local",
        op: "one DeepThermo::run() to converged ln g; ops_per_s counts MC moves",
        native: REWL_NATIVE,
        why: "NbMoTaW L=6, local swaps, 2 windows on threads, ln f -> 5e-5, sampler seed 2023: swap dE + WL step + local proposal dominate; nn/training idle, comm small",
    },
    Workload {
        name: "rewl_deep",
        op: "one DeepThermo::run() to converged ln g; ops_per_s counts MC moves",
        native: REWL_NATIVE,
        why: "NbMoTaW L=4, deep k=12 proposals, ln f -> 3e-3, sampler seed 2023: proposal training + nn inference dominate; k-site reassign dE instead of swaps",
    },
    Workload {
        name: "rewl_tcp",
        op: "one run_cluster_rank() pair over loopback TCP; ops_per_s counts MC moves",
        native: REWL_NATIVE,
        why: "NbMoTaW L=3, local swaps over loopback TCP, exchange every sweep, ln f -> 5e-5: exchange + allreduce are over half; a dE speedup moves it least, a comm/codec change moves only it",
    },
    Workload {
        name: "serve_hot",
        op: "one HTTP request; ops_per_s counts requests",
        native: SERVE_NATIVE,
        why: "Fleet of router + 2 shards, Zipf keys x 4 fixed grids, warmed: every request a shard-cache hit; reactor/http/router hop/cache reads dominate, thermo idle",
    },
    Workload {
        name: "serve_cold",
        op: "one HTTP request; ops_per_s counts requests",
        native: SERVE_NATIVE,
        why: "Same fleet, unique grid per thermo request plus sro and predict: every request evaluates and inserts; canonical_curve, surrogate, JSON encode dominate",
    },
];

/// One emitted metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload must emit every one of
/// these and none may read 0, so each name is generic over "operation": a
/// `run()` to a converged density of states on `rewl_*`, an HTTP request
/// on `serve_*`. [`Workload::native`] gives the names the issue uses.
///
/// * `setup_s`: [`SETUP_FLOOR_S`] plus the median set-up repetition;
/// * `ops_per_s`: moves (requests) per second of the lower-quartile repeat
///   (median segment);
/// * `op_time_ms`: the time a user of the workload plans by — the wall of
///   the lower-quartile repeat on `rewl_*` (`sampler::end_to_end` says why
///   not the median), the 99th percentile of request latency in the
///   median segment on `serve_*`. A handful of repeats has no percentile
///   above its median, and the slowest of three measured a 38 % spread
///   over ten seeds on this box, so `rewl_*` has no tail metric.
///
/// The bounds are the widest the contract allows: ten runs of unchanged
/// code spread by 2–8 % on this box in a quiet hour (README.md), and the
/// contract asks for a third of the bound.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_time_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// The issue's floor under `setup_s`, added to the measured set-up: a
/// relative bound on the 40–250 us a `rewl_*` set-up takes would reject a
/// change that moves a millisecond into it.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Single-layer numbers from the traced run; layer = crate. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // core: the pipeline stages of one run.
    layer("core.build_s", "s", Lower),
    layer("core.range_s", "s", Lower),
    layer("core.sample_s", "s", Lower),
    layer("core.evaluate_s", "s", Lower),
    layer("core.export_s", "s", Lower),
    layer("core.export_bytes", "B", Lower),
    layer("core.attributed_frac", "frac", Higher),
    // lattice
    layer("lattice.neighbor_build_us", "us", Lower),
    layer("lattice.sro_observe_us", "us", Lower),
    // hamiltonian
    layer("hamiltonian.swap_delta_ns", "ns", Lower),
    layer("hamiltonian.reassign_delta_ns", "ns", Lower),
    layer("hamiltonian.total_energy_us", "us", Lower),
    layer("hamiltonian.swap_delta_bytes_computed", "B", Lower),
    // nn
    layer("nn.forward_row_ns_b1", "ns", Lower),
    layer("nn.forward_row_ns_b12", "ns", Lower),
    layer("nn.flops_per_row", "count", Lower),
    // proposal
    layer("proposal.local_ns", "ns", Lower),
    layer("proposal.deep_ns", "ns", Lower),
    layer("proposal.train_epoch_ms", "ms", Lower),
    layer("proposal.local_accept_frac", "frac", Higher),
    layer("proposal.deep_accept_frac", "frac", Higher),
    // wanglandau
    layer("wanglandau.step_ns", "ns", Lower),
    layer("wanglandau.sweeps_to_converge", "count", Lower),
    // rewl
    layer("rewl.total_moves", "count", Lower),
    layer("rewl.exchange_rounds", "count", Lower),
    layer("rewl.round_trips", "count", Higher),
    layer("rewl.exchange_accept_frac", "frac", Higher),
    layer("rewl.moves_per_round_trip", "count", Lower),
    layer("rewl.wire_walker_us", "us", Lower),
    layer("rewl.overhead_frac", "frac", Lower),
    // hpc
    layer("hpc.allreduce_us_thread", "us", Lower),
    layer("hpc.allreduce_us_tcp", "us", Lower),
    layer("hpc.pingpong_us_thread", "us", Lower),
    layer("hpc.pingpong_us_tcp", "us", Lower),
    layer("hpc.bytes_per_exchange_round", "B", Lower),
    // thermo
    layer("thermo.canonical_curve_us", "us", Lower),
    layer("thermo.sro_reweight_us", "us", Lower),
    // surrogate
    layer("surrogate.predict_row_ns", "ns", Lower),
    // serve
    layer("serve.hit_p50_us", "us", Lower),
    layer("serve.miss_p50_us", "us", Lower),
    layer("serve.cache_hit_frac", "frac", Higher),
    layer("serve.coalesced_frac", "frac", Lower),
    layer("serve.thermo_p50_us", "us", Lower),
    layer("serve.sro_p50_us", "us", Lower),
    layer("serve.predict_p50_us", "us", Lower),
    layer("serve.handle_hit_us", "us", Lower),
    layer("serve.handle_miss_us", "us", Lower),
    layer("serve.http_parse_ns", "ns", Lower),
    layer("serve.ring_lookup_ns", "ns", Lower),
    layer("serve.router_hop_us", "us", Lower),
    layer("serve.shard_skew", "ratio", Lower),
    layer("serve.evaluations", "count", Lower),
    layer("serve.rejected_frac", "frac", Lower),
    layer("serve.registry_open_ms", "ms", Lower),
    layer("serve.registry_bytes", "B", Lower),
    // telemetry: the program's existing per-rank phase report, read in
    // the traced run only, plus what switching it on costs.
    layer("telemetry.enabled_overhead_frac", "frac", Lower),
    layer("telemetry.phase.energy_eval_s", "s", Lower),
    layer("telemetry.phase.inference_s", "s", Lower),
    layer("telemetry.phase.train_s", "s", Lower),
    layer("telemetry.phase.move_batch_s", "s", Lower),
    layer("telemetry.phase.exchange_s", "s", Lower),
    layer("telemetry.phase.allreduce_s", "s", Lower),
    layer("telemetry.phase.gather_s", "s", Lower),
    layer("trace_overhead_frac", "frac", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
