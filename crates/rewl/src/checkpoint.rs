//! Cluster-level checkpoint/restart for REWL runs.
//!
//! Production REWL campaigns on real machines outlive node failures by
//! periodically persisting every rank's state and restarting from the
//! newest snapshot. This module provides the three pieces:
//!
//! * [`RankCheckpoint`] — one rank's full resumable state (`dtrewlrank`):
//!   the embedded [`WalkerCheckpoint`] plus the driver-level counters a
//!   plain walker snapshot does not know about (exchange counters, RNG
//!   stream position, deep-proposal weights, the SRO accumulator);
//! * [`ResumePoint`] — one cluster snapshot (`dtrewl` v2): the round, the
//!   configuration digest, the fault plan and every rank's
//!   `dtrewlrank` image. At a snapshot round every rank ships its image
//!   to rank 0 over the gather's path, and rank 0 writes the round as one
//!   file, `round-<round>.dtrewl`;
//! * [`load_resume_point`] — the recovery scan: the newest snapshot that
//!   decodes wins, unless another run wrote it.
//!
//! A snapshot is written to a temporary name, synced, atomically renamed
//! into place, and the directory synced, so a crash mid-write never
//! leaves a partial file under a snapshot's name. Its `sum` line
//! (FNV-1a over every byte before it) and `end` sentinel turn a torn or
//! corrupted file into a typed [`CkptError`], and the scan falls back to
//! the next older snapshot. The formats are versioned line-oriented text
//! with hex-encoded IEEE-754 (like `dt-nn`'s model format), so restores
//! are bit-exact.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use dt_codec::text::{Hex64, Reader, Writer};
use dt_codec::{fnv1a, TextError};
use dt_hpc::FaultPlan;
use dt_proposal::MoveStats;
use dt_wanglandau::WalkerCheckpoint;

use crate::driver::RewlConfig;

/// Format version of the rank image (`dtrewlrank`).
const VERSION: u32 = 1;
/// Format version of the cluster snapshot (`dtrewl`); v1 was the
/// per-round manifest of the older per-rank layout.
const SNAPSHOT_VERSION: u32 = 2;

/// Where and how often a REWL run checkpoints itself.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding the snapshot files (created on demand).
    pub dir: PathBuf,
    /// Snapshot every this many exchange rounds.
    pub every_rounds: u64,
}

impl CheckpointSpec {
    /// Checkpoint into `dir` every 10 rounds.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            dir: dir.into(),
            every_rounds: 10,
        }
    }

    /// Override the snapshot cadence.
    ///
    /// # Panics
    /// Panics when `every_rounds == 0`.
    pub fn every_rounds(mut self, every_rounds: u64) -> Self {
        assert!(every_rounds > 0, "checkpoint cadence must be positive");
        self.every_rounds = every_rounds;
        self
    }
}

/// Why a checkpoint does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Header missing or wrong version.
    BadHeader,
    /// The file ends before its last line.
    Truncated,
    /// Bytes follow the `end` sentinel.
    Trailing,
    /// The bytes do not match their recorded checksum.
    BadSum,
    /// A field was malformed or missing.
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadHeader => write!(f, "bad checkpoint header"),
            CkptError::Truncated => write!(f, "truncated checkpoint"),
            CkptError::Trailing => write!(f, "bytes after the checkpoint's end"),
            CkptError::BadSum => write!(f, "checkpoint checksum mismatch"),
            CkptError::Malformed(w) => write!(f, "malformed checkpoint: {w}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<TextError> for CkptError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::BadHeader | TextError::UnsupportedVersion(_) => CkptError::BadHeader,
            TextError::Truncated => CkptError::Truncated,
            e => CkptError::Malformed(e.to_string()),
        }
    }
}

fn malformed(what: impl Into<String>) -> CkptError {
    CkptError::Malformed(what.into())
}

/// One rank's complete resumable state at a checkpoint round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankCheckpoint {
    /// Exchange attempts so far (initiator side).
    pub exchange_attempts: u64,
    /// Accepted exchanges so far.
    pub exchange_accepted: u64,
    /// Sweeps executed so far.
    pub sweeps: u64,
    /// Sweeps since the last flatness check.
    pub sweeps_since_check: u64,
    /// The walker RNG's stream position (restored with `set_word_pos` on
    /// the same per-rank seed, so the stream continues bit-exactly).
    pub rng_word_pos: u128,
    /// The communicator's collective generation counters
    /// `[barrier, reduce, reserved]` at the checkpoint round. Written for
    /// the record and ignored on resume: a resumed cluster starts every
    /// rank's counters afresh, together. The third slot numbered
    /// broadcasts, which are gone; the `coll` line keeps it because the
    /// `dtrewlrank` bytes are pinned.
    pub coll_gens: [u64; 3],
    /// Walker migrations this rank has undergone (dynamic reallocation).
    pub rebalanced: u64,
    /// Boundary crossings completed in windows this rank has since left
    /// (banked at each migration so cumulative telemetry survives).
    pub rt_banked_crossings: u64,
    /// Moves inside those banked crossings.
    pub rt_banked_moves: u64,
    /// The cluster-wide rank→window assignment at the checkpoint round.
    /// Empty when the run does not rebalance (the uniform `rank / W`
    /// assignment is implied) — files stay byte-identical to earlier
    /// versions in that case.
    pub assignment: Vec<usize>,
    /// Flattened deep-proposal weights, when the run uses a deep kernel.
    pub deep_params: Option<Vec<f64>>,
    /// Acceptance statistics by kernel.
    pub stats: MoveStats,
    /// Observable dimension of the SRO accumulator.
    pub obs_dim: usize,
    /// Per-bin SRO observation totals (`bins · obs_dim` values).
    pub sro_sums: Vec<f64>,
    /// Per-bin SRO observation counts.
    pub sro_counts: Vec<u64>,
    /// The Wang–Landau walker snapshot.
    pub walker: WalkerCheckpoint,
}

impl RankCheckpoint {
    /// Serialize to the versioned text format.
    pub fn encode(&self) -> String {
        let mut w = Writer::new("dtrewlrank", VERSION);
        w.line("counters")
            .dec(self.exchange_attempts)
            .dec(self.exchange_accepted)
            .dec(self.sweeps)
            .dec(self.sweeps_since_check);
        w.line("rng").hex_u128(self.rng_word_pos);
        w.line("coll").decs(self.coll_gens);
        // Rebalance state is written only when non-default, so runs
        // without dynamic reallocation produce byte-identical files.
        let rebal = [
            self.rebalanced,
            self.rt_banked_crossings,
            self.rt_banked_moves,
        ];
        if rebal != [0; 3] {
            w.line("rebal").decs(rebal);
        }
        if !self.assignment.is_empty() {
            w.line("assign").decs(&self.assignment);
        }
        match &self.deep_params {
            Some(p) => w.line("deep").hex_f64s(p),
            None => w.line("deep").dec('-'),
        };
        w.line("stats").dec(self.stats.iter().count());
        for (name, proposed, accepted) in self.stats.iter() {
            w.row().dec(name).dec(proposed).dec(accepted);
        }
        w.line("sro").dec(self.sro_counts.len()).dec(self.obs_dim);
        w.line("sums").hex_f64s(&self.sro_sums);
        w.line("counts").decs(&self.sro_counts);
        w.line("walker");
        w.embed(&self.walker.encode());
        w.finish()
    }

    /// Restore from [`RankCheckpoint::encode`] output.
    ///
    /// # Errors
    /// [`CkptError`] on structural problems.
    pub fn decode(text: &str) -> Result<Self, CkptError> {
        let mut r = Reader::new(text, "dtrewlrank", &[VERSION])?;
        let [exchange_attempts, exchange_accepted, sweeps, sweeps_since_check] =
            r.line("counters")?.decs("counter")?;
        let rng_word_pos = r.line("rng")?.hex_u128("rng position")?;
        // Optional (files from before the recovery layer lack it): the
        // collective generation counters.
        let mut coll_gens = [0u64; 3];
        if r.try_line("coll")? {
            coll_gens = r.decs("collective generation")?;
        }
        // Optional (only runs with dynamic reallocation write them):
        // migration counters and the rank→window assignment.
        let mut rebal = [0u64; 3];
        if r.try_line("rebal")? {
            rebal = r.decs("rebal field")?;
        }
        let mut assignment = Vec::new();
        if r.try_line("assign")? {
            assignment = r.rest_with("assignment", Reader::dec)?;
        }
        r.line("deep")?;
        let deep_params = match r.peek() {
            Some("-") => r.token("deep").map(|_| None)?,
            _ => Some(r.rest_with("deep parameter", Reader::hex_f64)?),
        };
        let num_kernels: usize = r.line("stats")?.dec("stats count")?;
        let mut stats = MoveStats::new();
        for _ in 0..num_kernels {
            let name = r.row()?.token("kernel name")?;
            let (proposed, accepted) = (r.dec("proposed count")?, r.dec("accepted count")?);
            if accepted > proposed {
                return Err(r.malformed("accepted count above proposed").into());
            }
            stats.record_n(name, proposed, accepted);
        }
        let [bins, obs_dim]: [usize; 2] = r.line("sro")?.decs("sro shape")?;
        let sro_sums = r.line("sums")?.rest_with("sro sum", Reader::hex_f64)?;
        let sro_counts: Vec<u64> = r.line("counts")?.rest_with("sro count", Reader::dec)?;
        if Some(sro_sums.len()) != bins.checked_mul(obs_dim) || sro_counts.len() != bins {
            return Err(malformed("sro shape mismatch"));
        }
        r.line("walker")?;
        let walker = WalkerCheckpoint::decode(r.rest())
            .map_err(|e| malformed(format!("embedded walker: {e}")))?;
        Ok(RankCheckpoint {
            exchange_attempts,
            exchange_accepted,
            sweeps,
            sweeps_since_check,
            rng_word_pos,
            coll_gens,
            rebalanced: rebal[0],
            rt_banked_crossings: rebal[1],
            rt_banked_moves: rebal[2],
            assignment,
            deep_params,
            stats,
            obs_dim,
            sro_sums,
            sro_counts,
            walker,
        })
    }
}

/// One cluster snapshot: the round it was taken at, the run it belongs
/// to, and every rank's state. Rank 0 writes it as one `dtrewl` v2 file
/// per snapshot round, and a resume starts every rank from it.
#[derive(Debug, PartialEq)]
pub struct ResumePoint {
    /// Exchange round the snapshot was taken at (start of round).
    pub round: u64,
    /// Digest of the run configuration (see [`config_digest`]).
    pub digest: u64,
    /// The fault plan (and chaos seed) active when the snapshot was
    /// taken. The driver rejects a resume whose requested plan disagrees
    /// (unless the request is fault-free — turning injection off for the
    /// rerun is always safe): a chaos run is only deterministic when
    /// resumed under the plan it started with.
    pub faults: FaultPlan,
    /// Every rank's state, in rank order.
    pub ranks: Vec<RankCheckpoint>,
}

impl ResumePoint {
    /// Serialize to the `dtrewl` v2 text format: `round`, `ranks`,
    /// `digest`, `faults`, then per rank a `rank <bytes>` line followed
    /// by that many bytes of its exact `dtrewlrank` encoding, then a
    /// `sum` line (FNV-1a over every byte before it) and `end`.
    pub fn encode(&self) -> String {
        let images: Vec<String> = self.ranks.iter().map(RankCheckpoint::encode).collect();
        encode_snapshot(self.round, self.digest, &self.faults, &images)
    }

    /// Restore from [`ResumePoint::encode`] output.
    ///
    /// # Errors
    /// [`CkptError::Truncated`] when the file ends early,
    /// [`CkptError::Trailing`] when bytes follow `end`,
    /// [`CkptError::BadSum`] when the bytes do not match their sum, and
    /// the other variants on structural problems.
    pub fn decode(text: &str) -> Result<Self, CkptError> {
        let mut r = Reader::new(text, "dtrewl", &[SNAPSHOT_VERSION])?;
        let round = r.line("round")?.dec("round")?;
        let num_ranks: usize = r.line("ranks")?.dec("ranks")?;
        let digest = r.line("digest")?.hex_u64("digest")?;
        r.line("faults")?;
        let faults = FaultPlan::decode(r.rest_of_line())
            .map_err(|e| malformed(format!("bad fault plan: {e}")))?;
        let images = (0..num_ranks)
            .map(|_| {
                let len = r.line("rank")?.dec("image length")?;
                r.block(len, "rank image")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let summed = &text[..text.len() - r.rest().len()];
        if r.line("sum")?.hex_u64("sum")? != fnv1a(summed.as_bytes()) {
            return Err(CkptError::BadSum);
        }
        match r.rest() {
            "end\n" => {}
            rest if rest.starts_with("end\n") => return Err(CkptError::Trailing),
            rest if "end\n".starts_with(rest) => return Err(CkptError::Truncated),
            _ => return Err(malformed("missing end sentinel")),
        }
        let ranks = images
            .into_iter()
            .enumerate()
            .map(|(rank, image)| {
                RankCheckpoint::decode(image).map_err(|e| malformed(format!("rank {rank}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(ResumePoint {
            round,
            digest,
            faults,
            ranks,
        })
    }
}

/// The [`ResumePoint::encode`] text of a snapshot round from every
/// rank's exact `dtrewlrank` image, in rank order. Rank 0 passes the
/// images as the other ranks sent them, without re-encoding.
pub(crate) fn encode_snapshot(
    round: u64,
    digest: u64,
    faults: &FaultPlan,
    images: &[String],
) -> String {
    let mut w = Writer::new("dtrewl", SNAPSHOT_VERSION);
    w.line("round").dec(round);
    w.line("ranks").dec(images.len());
    w.line("digest").hex_u64(digest);
    w.line("faults").dec(faults.encode());
    for image in images {
        w.line("rank").dec(image.len());
        w.embed(image);
    }
    let sum = fnv1a(w.text().as_bytes());
    w.line("sum").hex_u64(sum);
    w.line("end");
    w.finish()
}

/// Persist a snapshot's `text` as `dir/round-<round>.dtrewl`: written to
/// a temporary sibling and synced, then atomically renamed into place and
/// the directory synced, so readers never see a half-written snapshot and
/// after a crash the name holds all of it or nothing.
///
/// # Errors
/// Propagates filesystem failures.
pub(crate) fn write_snapshot(dir: &Path, round: u64, text: &str) -> io::Result<()> {
    let name = format!("round-{round:012}.dtrewl");
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    fs::rename(&tmp, dir.join(name))?;
    fs::File::open(dir)?.sync_all()
}

/// Digest of the configuration fields that determine checkpoint
/// compatibility. Deliberately EXCLUDES `max_sweeps`, `faults`, and
/// `checkpoint` so a resumed run may extend its sweep budget, change the
/// injected-fault plan, or move the checkpoint directory; everything that
/// shapes rank state (windows, bins, seeds, kernels, schedules) is in.
pub fn config_digest(cfg: &RewlConfig) -> u64 {
    let mut stable = format!(
        "M={} W={} overlap={} bins={} wl={:?} exch={} obs={} seed={} kernel={:?}",
        cfg.num_windows,
        cfg.walkers_per_window,
        Hex64(cfg.overlap.to_bits()),
        cfg.num_bins,
        cfg.wl,
        cfg.exchange_every_sweeps,
        cfg.observe_every_sweeps,
        cfg.seed,
        cfg.kernel,
    );
    // Appended only when the adaptive machinery is on, so digests of
    // pre-existing (non-adaptive) runs are unchanged and their
    // checkpoints stay resumable.
    if cfg.adaptive_windows || cfg.rebalance_every > 0 {
        use std::fmt::Write;
        write!(
            stable,
            " adaptive={} rebalance={}",
            cfg.adaptive_windows, cfg.rebalance_every
        )
        .expect("write");
    }
    fnv1a(stable.as_bytes())
}

/// The newest snapshot in `dir` that decodes; `Ok(None)` when there is
/// none. A snapshot that does not decode (torn, truncated, a bad sum) is
/// skipped for the next older one.
///
/// # Errors
/// Why the directory cannot serve this run: it holds the per-rank files
/// of the older layout, or its newest snapshot was written by another
/// configuration (another digest or rank count) — resuming would mix
/// two runs, and checkpointing into it would overwrite the other run's
/// snapshots.
pub(crate) fn find_snapshot(
    dir: &Path,
    digest: u64,
    num_ranks: usize,
) -> Result<Option<ResumePoint>, String> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if (name.starts_with("manifest-") || name.starts_with("walker-")) && name.ends_with(".txt")
        {
            return Err(format!(
                "it holds {name}, from the per-rank snapshot layout (manifest-*.txt, \
                 walker-*.txt) of older versions, which this version does not read"
            ));
        }
        if name.starts_with("round-") && name.ends_with(".dtrewl") {
            names.push(name);
        }
    }
    // Rounds are zero-padded, so the names sort newest first.
    names.sort_unstable_by(|a, b| b.cmp(a));
    for name in names {
        let text = fs::read_to_string(dir.join(&name)).unwrap_or_default();
        let Ok(rp) = ResumePoint::decode(&text) else {
            continue;
        };
        if rp.digest != digest || rp.ranks.len() != num_ranks {
            return Err(format!(
                "{name} records configuration digest {} over {} ranks, \
                 but this run's is {} over {num_ranks}",
                Hex64(rp.digest),
                rp.ranks.len(),
                Hex64(digest)
            ));
        }
        return Ok(Some(rp));
    }
    Ok(None)
}

/// The newest snapshot in `dir` that this run (`digest`, `num_ranks`)
/// can resume from; `None` when there is none or the directory cannot
/// serve this run (the driver reports why).
pub fn load_resume_point(dir: &Path, digest: u64, num_ranks: usize) -> Option<ResumePoint> {
    find_snapshot(dir, digest, num_ranks).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ResumePoint {
        /// Write this snapshot the way rank 0 writes a round.
        fn write(&self, dir: &Path) -> io::Result<()> {
            write_snapshot(dir, self.round, &self.encode())
        }
    }

    fn sample_walker() -> WalkerCheckpoint {
        WalkerCheckpoint {
            e_min: -2.0,
            e_max: 1.0,
            num_bins: 3,
            ln_g: vec![0.5, 1.5, 0.0],
            visits: vec![3, 1, 0],
            ever_visited: vec![true, true, false],
            species: vec![0, 1, 1, 0],
            num_species: 2,
            energy: -0.5,
            ln_f: 0.25,
            total_moves: 420,
            stages: 3,
            one_over_t_phase: false,
            rt_last_boundary: 1,
            rt_crossings: 6,
            rt_crossing_moves: 300,
            rt_leg_start_moves: 400,
        }
    }

    fn sample_rank() -> RankCheckpoint {
        let mut stats = MoveStats::new();
        stats.record_n("local-swap", 100, 37);
        stats.record_n("deep", 20, 5);
        RankCheckpoint {
            exchange_attempts: 12,
            exchange_accepted: 4,
            sweeps: 1234,
            sweeps_since_check: 7,
            rng_word_pos: 0xDEAD_BEEF_0123_4567_89AB_CDEF_u128,
            coll_gens: [3, 14, 1],
            rebalanced: 2,
            rt_banked_crossings: 8,
            rt_banked_moves: 5_000,
            assignment: vec![0, 1, 1, 1],
            deep_params: Some(vec![0.25, -1.5, 3e-9]),
            stats,
            obs_dim: 2,
            sro_sums: vec![1.0, 2.0, 0.0, 0.0, 5.5, -0.5],
            sro_counts: vec![4, 0, 2],
            walker: sample_walker(),
        }
    }

    #[test]
    fn rank_checkpoint_round_trip_is_exact() {
        let cp = sample_rank();
        let back = RankCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
        let mut no_deep = cp;
        no_deep.deep_params = None;
        let back = RankCheckpoint::decode(&no_deep.encode()).unwrap();
        assert_eq!(back, no_deep);
    }

    #[test]
    fn rank_checkpoint_rejects_corruption() {
        let text = sample_rank().encode();
        assert!(matches!(
            RankCheckpoint::decode("garbage"),
            Err(CkptError::BadHeader)
        ));
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(RankCheckpoint::decode(&truncated).is_err());
        let tampered = text.replace("counts 4 0 2", "counts 4 0");
        assert!(RankCheckpoint::decode(&tampered).is_err());
    }

    fn snapshot(round: u64, digest: u64, ranks: Vec<RankCheckpoint>) -> ResumePoint {
        ResumePoint {
            round,
            digest,
            faults: FaultPlan::none(),
            ranks,
        }
    }

    /// A fresh scratch directory for the test `label`.
    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtrewl-ckpt-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trip_and_rejection() {
        let mut plain = sample_rank();
        plain.deep_params = None;
        let rp = snapshot(40, 0x1234_5678_9abc_def0, vec![sample_rank(), plain]);
        let text = rp.encode();
        assert_eq!(ResumePoint::decode(&text).unwrap(), rp);
        // Each rank's exact image sits behind its length line.
        for rc in &rp.ranks {
            let image = rc.encode();
            assert!(text.contains(&format!("rank {}\n{image}", image.len())));
        }
        assert!(matches!(
            ResumePoint::decode("nope"),
            Err(CkptError::BadHeader)
        ));
        let cut = text.strip_suffix("end\n").unwrap();
        assert!(matches!(
            ResumePoint::decode(cut),
            Err(CkptError::Truncated)
        ));
        assert!(matches!(
            ResumePoint::decode(&format!("{text}x")),
            Err(CkptError::Trailing)
        ));
        let flipped = text.replacen("counters 12", "counters 13", 1);
        assert!(matches!(
            ResumePoint::decode(&flipped),
            Err(CkptError::BadSum)
        ));
        // The per-rank manifest of the older layout is not a snapshot.
        let v1 = "dtrewl v1\nround 40\nranks 1\ndigest 0000000000000001\n";
        assert!(matches!(ResumePoint::decode(v1), Err(CkptError::BadHeader)));
    }

    #[test]
    fn snapshot_faults_line_is_mandatory_and_round_trips() {
        for faults in [
            FaultPlan::none(),
            FaultPlan::chaos(11, 4, 20).kill_at_round(2, 7),
        ] {
            let rp = ResumePoint {
                faults,
                ..snapshot(40, 7, vec![sample_rank()])
            };
            let text = rp.encode();
            let back = ResumePoint::decode(&text).unwrap();
            assert_eq!(back.faults, rp.faults);
            assert_eq!(back.faults.chaos_seed(), rp.faults.chaos_seed());
            // Unlike the older manifest's, the faults line cannot be
            // left out, and a plan that does not parse is refused.
            let faults_line = format!("faults {}\n", rp.faults.encode());
            assert!(text.contains(&faults_line));
            assert!(ResumePoint::decode(&text.replacen(&faults_line, "", 1)).is_err());
            assert!(matches!(
                ResumePoint::decode(&text.replacen(&faults_line, "faults bogus\n", 1)),
                Err(CkptError::Malformed(_))
            ));
        }
    }

    #[test]
    fn stats_rows_are_validated() {
        let text = sample_rank().encode();
        for bad in [
            "local-swap 100\n",
            "local-swap many 37\n",
            "local-swap 100 137\n",
            "local-swap 100 37 0\n",
        ] {
            let tampered = text.replace("local-swap 100 37\n", bad);
            assert_ne!(tampered, text);
            assert!(matches!(
                RankCheckpoint::decode(&tampered),
                Err(CkptError::Malformed(_))
            ));
        }
    }

    #[test]
    fn resume_scan_prefers_newest_consistent_snapshot() {
        let dir = scratch("scan");
        let digest = 42u64;
        let mut old = sample_rank();
        old.sweeps = 500;
        snapshot(10, digest, vec![old.clone(), old])
            .write(&dir)
            .unwrap();
        // Round 20 is torn mid-image, round 30 fails its sum: both are
        // skipped in favour of round 10.
        let text = snapshot(20, digest, vec![sample_rank(); 2]).encode();
        fs::write(
            dir.join("round-000000000020.dtrewl"),
            &text[..text.len() / 2],
        )
        .unwrap();
        let text = snapshot(30, digest, vec![sample_rank(); 2]).encode();
        fs::write(
            dir.join("round-000000000030.dtrewl"),
            text.replacen("counters 12 4 1234", "counters 12 4 1235", 1),
        )
        .unwrap();
        // Leftover temporaries and unrelated files are not snapshots.
        fs::write(dir.join("round-000000000040.dtrewl.tmp"), "partial").unwrap();
        fs::write(dir.join("notes.txt"), "not a snapshot").unwrap();

        let rp = load_resume_point(&dir, digest, 2).expect("resume point");
        assert_eq!(rp.round, 10);
        assert!(rp.ranks.iter().all(|rc| rc.sweeps == 500));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_of_another_run_is_refused() {
        let dir = scratch("foreign");
        snapshot(10, 42, vec![sample_rank(); 2])
            .write(&dir)
            .unwrap();
        assert!(find_snapshot(&dir, 42, 2).unwrap().is_some());
        let why = find_snapshot(&dir, 43, 2).unwrap_err();
        assert!(
            why.contains("digest 000000000000002a over 2 ranks")
                && why.contains("000000000000002b over 2"),
            "{why}"
        );
        let why = find_snapshot(&dir, 42, 3).unwrap_err();
        assert!(
            why.contains("over 2 ranks") && why.contains("over 3"),
            "{why}"
        );
        assert!(load_resume_point(&dir, 43, 2).is_none());
        // The older per-rank layout is named, never read.
        fs::write(dir.join("manifest-000000000040.txt"), "dtrewl v1\n").unwrap();
        let why = find_snapshot(&dir, 42, 2).unwrap_err();
        assert!(why.contains("manifest-000000000040.txt"), "{why}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn coll_line_is_optional_for_pre_recovery_files() {
        // Files written before the recovery layer have no "coll" line;
        // they must still decode, with zeroed generation counters.
        let cp = sample_rank();
        let text: String = cp
            .encode()
            .lines()
            .filter(|l| !l.starts_with("coll "))
            .collect::<Vec<_>>()
            .join("\n");
        let back = RankCheckpoint::decode(&text).unwrap();
        assert_eq!(back.coll_gens, [0, 0, 0]);
        assert_eq!(back.sweeps, cp.sweeps);
    }

    #[test]
    fn rebal_and_assign_lines_are_optional() {
        // Runs without dynamic reallocation (and files from before it
        // existed) carry neither line; decode restores the defaults.
        let cp = sample_rank();
        let text: String = cp
            .encode()
            .lines()
            .filter(|l| !l.starts_with("rebal ") && !l.starts_with("assign "))
            .collect::<Vec<_>>()
            .join("\n");
        let back = RankCheckpoint::decode(&text).unwrap();
        assert_eq!(back.rebalanced, 0);
        assert_eq!(back.rt_banked_crossings, 0);
        assert_eq!(back.rt_banked_moves, 0);
        assert!(back.assignment.is_empty());
        assert_eq!(back.sweeps, cp.sweeps);
        // And a default (non-rebalancing) rank writes neither line at all.
        let mut plain = cp.clone();
        plain.rebalanced = 0;
        plain.rt_banked_crossings = 0;
        plain.rt_banked_moves = 0;
        plain.assignment = Vec::new();
        let encoded = plain.encode();
        assert!(!encoded.contains("rebal "));
        assert!(!encoded.contains("assign "));
        assert_eq!(RankCheckpoint::decode(&encoded).unwrap(), plain);
    }

    #[test]
    fn adaptive_fields_extend_the_digest_only_when_enabled() {
        let base = RewlConfig::default();
        let mut adaptive = base.clone();
        adaptive.adaptive_windows = true;
        let mut rebalancing = base.clone();
        rebalancing.rebalance_every = 4;
        // Off ⇒ identical digest to a config that predates the fields.
        assert_eq!(config_digest(&base), {
            let mut same = base.clone();
            same.max_sweeps += 1; // excluded field: digest unchanged
            config_digest(&same)
        });
        assert_ne!(config_digest(&base), config_digest(&adaptive));
        assert_ne!(config_digest(&base), config_digest(&rebalancing));
        assert_ne!(config_digest(&adaptive), config_digest(&rebalancing));
    }

    #[test]
    fn atomic_write_replaces_existing_file() {
        let dir = scratch("atomic");
        snapshot(7, 1, vec![sample_rank()]).write(&dir).unwrap();
        let second = snapshot(7, 2, vec![sample_rank()]);
        second.write(&dir).unwrap();
        let path = dir.join("round-000000000007.dtrewl");
        assert_eq!(fs::read_to_string(&path).unwrap(), second.encode());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temporary left");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod ckpt_proptests {
    use super::*;
    use proptest::prelude::*;

    /// Interpret raw bits as a finite f64 (NaN would break the `PartialEq`
    /// round-trip comparison even though the hex wire format preserves its
    /// bits exactly).
    fn finite(bits: u64) -> f64 {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f64::from_bits(bits & 0x000F_FFFF_FFFF_FFFF)
        }
    }

    /// Composite strategy for a full rank checkpoint. Built from nested
    /// tuple strategies (the vendored mini-proptest has no
    /// `prop_compose!`); the three groups are arbitrary.
    #[allow(clippy::type_complexity)]
    fn arb_rank_checkpoint() -> impl Strategy<Value = RankCheckpoint> {
        let group_a = (
            proptest::collection::vec(0u64..u64::MAX / 2, 4),
            (any::<u64>(), 0u64..1 << 60),
            proptest::collection::vec(0u64..1 << 50, 3),
            prop_oneof![
                proptest::collection::vec(any::<u64>(), 0..8).prop_map(Some),
                Just(None),
            ],
            proptest::collection::vec((0u64..1 << 40, 0.0f64..=1.0), 0..4),
        );
        let group_b = (
            1usize..5,
            1usize..4,
            proptest::collection::vec(any::<u64>(), 16),
            proptest::collection::vec(0u64..1 << 40, 16),
            proptest::collection::vec(any::<u64>(), 8),
        );
        let group_c = (
            proptest::collection::vec(0u64..1 << 40, 8),
            proptest::collection::vec(0u8..3, 1..10),
            0u64..u64::MAX / 2,
            0u32..64,
            any::<bool>(),
        );
        (group_a, group_b, group_c).prop_map(
            |(
                (counters, word_pos, coll_gens, deep_bits, stats_counts),
                (bins, obs_dim, sro_bits, sro_counts, walker_bits),
                (visits, species, total_moves, stages, one_over_t),
            )| {
                let mut stats = MoveStats::new();
                for (i, &(p, frac)) in stats_counts.iter().enumerate() {
                    let a = ((p as f64) * frac) as u64;
                    stats.record_n(&format!("kernel{i}"), p, a.min(p));
                }
                let walker = WalkerCheckpoint {
                    e_min: -(finite(walker_bits[0]).abs()) - 1.0,
                    e_max: finite(walker_bits[1]).abs() + 1.0,
                    num_bins: bins,
                    ln_g: walker_bits[2..2 + bins]
                        .iter()
                        .map(|&b| finite(b))
                        .collect(),
                    visits: visits[..bins].to_vec(),
                    ever_visited: visits[..bins].iter().map(|&v| v % 2 == 0).collect(),
                    species: species.clone(),
                    num_species: 3,
                    energy: finite(walker_bits[6]),
                    ln_f: finite(walker_bits[7]).abs(),
                    total_moves,
                    stages,
                    one_over_t_phase: one_over_t,
                    rt_last_boundary: match total_moves % 3 {
                        0 => 0,
                        1 => -1,
                        _ => 1,
                    },
                    rt_crossings: total_moves / 7,
                    rt_crossing_moves: total_moves / 2,
                    rt_leg_start_moves: total_moves / 3,
                };
                RankCheckpoint {
                    exchange_attempts: counters[0],
                    exchange_accepted: counters[1],
                    sweeps: counters[2],
                    sweeps_since_check: counters[3],
                    rng_word_pos: (u128::from(word_pos.1) << 64) | u128::from(word_pos.0),
                    coll_gens: [coll_gens[0], coll_gens[1], coll_gens[2]],
                    // Cover both shapes: rebalancing ranks (counters and
                    // an explicit assignment) and plain ones (defaults,
                    // which encode no extra lines at all).
                    rebalanced: counters[0] % 4,
                    rt_banked_crossings: counters[1] % 1000,
                    rt_banked_moves: counters[2] % 100_000,
                    assignment: if total_moves % 2 == 0 {
                        species.iter().map(|&s| s as usize).collect()
                    } else {
                        Vec::new()
                    },
                    deep_params: deep_bits.map(|v| v.into_iter().map(finite).collect()),
                    stats,
                    obs_dim,
                    sro_sums: sro_bits[..bins * obs_dim]
                        .iter()
                        .map(|&b| finite(b))
                        .collect(),
                    sro_counts: sro_counts[..bins].to_vec(),
                    walker,
                }
            },
        )
    }

    proptest! {
        /// Arbitrary rank state survives encode → decode bit-exactly.
        #[test]
        fn rank_checkpoint_round_trips(cp in arb_rank_checkpoint()) {
            let back = RankCheckpoint::decode(&cp.encode()).unwrap();
            prop_assert_eq!(back, cp);
        }

        /// A prefix-truncated file is rejected — or, when the cut only
        /// removes trailing whitespace, decodes to exactly the original.
        /// It never silently misdecodes to different state.
        #[test]
        fn truncated_rank_checkpoint_never_misdecodes(
            cp in arb_rank_checkpoint(),
            frac in 0.0f64..1.0,
        ) {
            let text = cp.encode();
            // The format is pure ASCII, so any byte index is a char
            // boundary.
            let cut = (text.len() as f64 * frac) as usize;
            let prefix = &text[..cut];
            match RankCheckpoint::decode(prefix) {
                Err(_) => {}
                Ok(back) => prop_assert_eq!(back, cp),
            }
        }

        /// Single-byte corruption anywhere in the file must never panic
        /// the decoder, and whatever it yields must re-encode cleanly.
        #[test]
        fn corrupt_byte_never_panics_decoder(
            cp in arb_rank_checkpoint(),
            frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let mut bytes = cp.encode().into_bytes();
            let idx = ((bytes.len() - 1) as f64 * frac) as usize;
            bytes[idx] ^= flip;
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(back) = RankCheckpoint::decode(&text) {
                let _ = back.encode();
            }
        }

        /// Snapshots round-trip for arbitrary shapes, including
        /// recorded chaos plans.
        #[test]
        fn snapshot_round_trips(
            round in 0u64..1 << 40,
            digest in any::<u64>(),
            ranks in proptest::collection::vec(arb_rank_checkpoint(), 0..4),
            chaos in prop_oneof![
                (any::<u64>(), 2usize..6, 1u64..100).prop_map(Some),
                Just(None),
            ],
        ) {
            let faults = match chaos {
                Some((seed, ranks, rounds)) => FaultPlan::chaos(seed, ranks, rounds),
                None => FaultPlan::none(),
            };
            let rp = ResumePoint { round, digest, faults, ranks };
            let back = ResumePoint::decode(&rp.encode()).unwrap();
            prop_assert_eq!(back, rp);
        }
    }
}
