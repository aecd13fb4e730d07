//! Cluster-level checkpoint/restart for REWL runs.
//!
//! Production REWL campaigns on real machines outlive node failures by
//! periodically persisting every rank's state and restarting from the
//! newest *consistent* snapshot. This module provides the three pieces:
//!
//! * [`RankCheckpoint`] — one rank's full resumable state: the embedded
//!   [`WalkerCheckpoint`] plus the driver-level counters a plain walker
//!   snapshot does not know about (exchange counters, RNG stream
//!   position, deep-proposal weights, the SRO accumulator);
//! * [`RunManifest`] — the per-round commit record rank 0 writes *after*
//!   every rank has persisted its file. A manifest names the round, a
//!   digest of the run configuration, and the set of ranks that
//!   contributed — a snapshot without its manifest is treated as
//!   non-existent, which makes the write protocol crash-consistent;
//! * [`load_resume_point`] — the recovery scan: the newest manifest whose
//!   digest matches, that lists every rank, and whose rank files all
//!   decode wins.
//!
//! All files are written to a temporary name and atomically renamed into
//! place, so a crash mid-write can never corrupt an existing snapshot.
//! The formats are versioned line-oriented text with hex-encoded IEEE-754
//! (like `dt-nn`'s model format), so restores are bit-exact.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use dt_codec::text::{Hex64, Reader, Writer};
use dt_codec::TextError;
use dt_hpc::FaultPlan;
use dt_proposal::MoveStats;
use dt_wanglandau::WalkerCheckpoint;

use crate::driver::RewlConfig;

/// Format version of both the manifest and the rank file.
const VERSION: u32 = 1;

/// Where and how often a REWL run checkpoints itself.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding manifests and rank files (created on demand).
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

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(io::Error),
    /// Header missing or wrong version.
    BadHeader,
    /// A field was malformed or missing.
    Malformed(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::BadHeader => write!(f, "bad checkpoint header"),
            CkptError::Malformed(w) => write!(f, "malformed checkpoint: {w}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<TextError> for CkptError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::BadHeader | TextError::UnsupportedVersion(_) => CkptError::BadHeader,
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

    /// Persist atomically as `dir/walker-<round>-<rank>.txt`.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn write(&self, dir: &Path, round: u64, rank: usize) -> Result<(), CkptError> {
        write_atomic(&rank_path(dir, round, rank), &self.encode())?;
        Ok(())
    }

    /// Load `dir/walker-<round>-<rank>.txt`.
    ///
    /// # Errors
    /// [`CkptError`] on missing, unreadable, or malformed files.
    pub fn load(dir: &Path, round: u64, rank: usize) -> Result<Self, CkptError> {
        let text = fs::read_to_string(rank_path(dir, round, rank))?;
        RankCheckpoint::decode(&text)
    }
}

/// The commit record of one cluster snapshot. A snapshot exists iff its
/// manifest exists: rank 0 writes the manifest only after every rank
/// confirmed its rank file is on disk (write-data-then-commit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Exchange round the snapshot was taken at (start of round).
    pub round: u64,
    /// Total ranks of the run (`M · W`), dead or alive.
    pub ranks: usize,
    /// Digest of the run configuration (see [`config_digest`]).
    pub digest: u64,
    /// Which ranks contributed a rank file to this snapshot. Ranks are
    /// fail-stop, so a committed snapshot lists every rank; the resume
    /// scan skips a manifest that does not.
    pub alive: Vec<bool>,
    /// The fault plan (and chaos seed) active when the snapshot was
    /// taken. Recorded so a resume can detect that it is being replayed
    /// under a *different* injected-fault schedule — a chaos run is only
    /// deterministic when resumed under the plan it started with.
    pub faults: FaultPlan,
    /// The rank→window assignment at the snapshot round, recording the
    /// net effect of every rebalance plan applied so far. Empty on runs
    /// without dynamic reallocation — the manifest stays byte-identical
    /// to earlier versions.
    pub assignment: Vec<usize>,
}

impl RunManifest {
    /// Serialize to the versioned text format.
    pub fn encode(&self) -> String {
        let mut w = Writer::new("dtrewl", VERSION);
        w.line("round").dec(self.round);
        w.line("ranks").dec(self.ranks);
        w.line("digest").hex_u64(self.digest);
        w.line("alive").mask(&self.alive);
        w.line("faults").dec(self.faults.encode());
        if !self.assignment.is_empty() {
            w.line("assign").decs(&self.assignment);
        }
        w.finish()
    }

    /// Restore from [`RunManifest::encode`] output.
    ///
    /// # Errors
    /// [`CkptError`] on structural problems.
    pub fn decode(text: &str) -> Result<Self, CkptError> {
        let mut r = Reader::new(text, "dtrewl", &[VERSION])?;
        let round = r.line("round")?.dec("round")?;
        let ranks: usize = r.line("ranks")?.dec("ranks")?;
        let digest = r.line("digest")?.hex_u64("digest")?;
        let alive = r.line("alive")?.mask("alive mask")?;
        if alive.len() != ranks {
            return Err(malformed("alive mask length mismatch"));
        }
        // Optional (manifests from before the recovery layer lack it):
        // the fault plan active when the snapshot was taken.
        let faults = if r.try_line("faults")? {
            FaultPlan::decode(r.rest_of_line())
                .map_err(|e| malformed(format!("bad fault plan: {e}")))?
        } else {
            FaultPlan::none()
        };
        // Optional trailing line: the rank→window assignment (runs with
        // dynamic reallocation only).
        let mut assignment: Vec<usize> = Vec::new();
        if r.try_line("assign")? {
            assignment = r.rest_with("assignment", Reader::dec)?;
        }
        if !assignment.is_empty() && assignment.len() != ranks {
            return Err(malformed("assignment length mismatch"));
        }
        Ok(RunManifest {
            round,
            ranks,
            digest,
            alive,
            faults,
            assignment,
        })
    }

    /// Persist atomically as `dir/manifest-<round>.txt`.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn write(&self, dir: &Path) -> Result<(), CkptError> {
        write_atomic(&manifest_path(dir, self.round), &self.encode())?;
        Ok(())
    }
}

/// Path of a rank file within a checkpoint directory.
pub fn rank_path(dir: &Path, round: u64, rank: usize) -> PathBuf {
    dir.join(format!("walker-{round:012}-{rank:04}.txt"))
}

/// Path of a manifest within a checkpoint directory.
pub fn manifest_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("manifest-{round:012}.txt"))
}

/// Write `contents` to `path` via a temporary sibling and an atomic
/// rename, so readers never observe a half-written file.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The state a resumed run starts from: a committed round plus every
/// rank's restored state.
#[derive(Debug)]
pub struct ResumePoint {
    /// Round the winning manifest was committed at.
    pub round: u64,
    /// Every rank's restored state, in rank order.
    pub ranks: Vec<RankCheckpoint>,
    /// The fault plan recorded in the winning manifest. The driver
    /// rejects a resume whose requested plan disagrees (unless the
    /// request is fault-free — turning injection off for the rerun is
    /// always safe).
    pub faults: FaultPlan,
}

/// The rounds of the manifests in `dir`, newest first. Unreadable or
/// foreign files are ignored.
fn manifest_rounds(dir: &Path) -> Vec<u64> {
    let mut rounds: Vec<u64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let stem = name.to_str()?.strip_prefix("manifest-")?;
            stem.strip_suffix(".txt")?.parse().ok()
        })
        .collect();
    rounds.sort_unstable_by(|a, b| b.cmp(a));
    rounds
}

/// Scan `dir` for the newest *complete* snapshot: a manifest whose digest
/// and rank count match this run, that lists every rank, and whose every
/// rank file decodes. Anything else is skipped in favor of an older
/// snapshot.
pub fn load_resume_point(dir: &Path, digest: u64, num_ranks: usize) -> Option<ResumePoint> {
    manifest_rounds(dir).into_iter().find_map(|round| {
        let text = fs::read_to_string(manifest_path(dir, round)).ok()?;
        let manifest = RunManifest::decode(&text).ok()?;
        if manifest.digest != digest
            || manifest.ranks != num_ranks
            || manifest.round != round
            || manifest.alive.contains(&false)
        {
            return None;
        }
        let ranks = (0..num_ranks)
            .map(|rank| RankCheckpoint::load(dir, round, rank).ok())
            .collect::<Option<Vec<_>>>()?;
        Some(ResumePoint {
            round,
            ranks,
            faults: manifest.faults,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn manifest_round_trip_and_rejection() {
        let m = RunManifest {
            round: 40,
            ranks: 4,
            digest: 0x1234_5678_9abc_def0,
            alive: vec![true, true, false, true],
            faults: FaultPlan::none().kill_at_round(2, 7),
            assignment: Vec::new(),
        };
        assert_eq!(RunManifest::decode(&m.encode()).unwrap(), m);
        assert!(matches!(
            RunManifest::decode("nope"),
            Err(CkptError::BadHeader)
        ));
        let tampered = m.encode().replace("alive 1101", "alive 110");
        assert!(RunManifest::decode(&tampered).is_err());
    }

    #[test]
    fn alive_mask_accepts_only_zero_and_one() {
        // Nothing but `0` may pass for "rank absent".
        let text = RunManifest {
            round: 1,
            ranks: 4,
            digest: 2,
            alive: vec![true, true, false, true],
            faults: FaultPlan::none(),
            assignment: Vec::new(),
        }
        .encode();
        for bad in ["alive 11x1", "alive 1121", "alive 11 1"] {
            let tampered = text.replace("alive 1101", bad);
            assert!(matches!(
                RunManifest::decode(&tampered),
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
        let dir = std::env::temp_dir().join(format!("dtrewl-ckpt-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let digest = 42u64;

        // Round 10: complete snapshot of 2 ranks.
        for rank in 0..2 {
            sample_rank().write(&dir, 10, rank).unwrap();
        }
        RunManifest {
            round: 10,
            ranks: 2,
            digest,
            alive: vec![true, true],
            faults: FaultPlan::none(),
            assignment: Vec::new(),
        }
        .write(&dir)
        .unwrap();

        // Round 20: manifest lists rank 1 but its file is corrupt — the
        // whole snapshot must be skipped.
        sample_rank().write(&dir, 20, 0).unwrap();
        fs::write(rank_path(&dir, 20, 1), "corrupt").unwrap();
        RunManifest {
            round: 20,
            ranks: 2,
            digest,
            alive: vec![true, true],
            faults: FaultPlan::none(),
            assignment: Vec::new(),
        }
        .write(&dir)
        .unwrap();

        let rp = load_resume_point(&dir, digest, 2).expect("resume point");
        assert_eq!(rp.round, 10);
        assert_eq!(rp.ranks.len(), 2);

        // Wrong digest ⇒ nothing to resume.
        assert!(load_resume_point(&dir, digest + 1, 2).is_none());
        // Wrong rank count ⇒ nothing to resume.
        assert!(load_resume_point(&dir, digest, 3).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_missing_a_rank_is_skipped() {
        let dir = std::env::temp_dir().join(format!("dtrewl-ckpt-dead-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let digest = 7u64;
        let manifest = |round, alive| RunManifest {
            round,
            ranks: 2,
            digest,
            alive,
            faults: FaultPlan::none(),
            assignment: Vec::new(),
        };

        // Round 5 is complete; round 15 lists rank 0 only, so a resume
        // from it could not restore rank 1.
        let mut old = sample_rank();
        old.sweeps = 500;
        for rank in 0..2 {
            old.write(&dir, 5, rank).unwrap();
        }
        manifest(5, vec![true, true]).write(&dir).unwrap();
        sample_rank().write(&dir, 15, 0).unwrap();
        sample_rank().write(&dir, 15, 1).unwrap();
        manifest(15, vec![true, false]).write(&dir).unwrap();

        let rp = load_resume_point(&dir, digest, 2).expect("resume point");
        assert_eq!(rp.round, 5);
        assert!(rp.ranks.iter().all(|rc| rc.sweeps == 500));
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
    fn manifest_assignment_line_round_trips_and_is_optional() {
        let m = RunManifest {
            round: 6,
            ranks: 4,
            digest: 1,
            alive: vec![true; 4],
            faults: FaultPlan::none(),
            assignment: vec![0, 1, 1, 1],
        };
        assert_eq!(RunManifest::decode(&m.encode()).unwrap(), m);
        // Non-rebalancing manifests carry no assign line.
        let mut plain = m.clone();
        plain.assignment = Vec::new();
        assert!(!plain.encode().contains("assign "));
        assert_eq!(RunManifest::decode(&plain.encode()).unwrap(), plain);
        // A recorded assignment must cover every rank.
        let bad = m.encode().replace("assign 0 1 1 1", "assign 0 1");
        assert!(RunManifest::decode(&bad).is_err());
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
    fn manifest_fault_line_is_optional_and_round_trips() {
        let m = RunManifest {
            round: 3,
            ranks: 2,
            digest: 9,
            alive: vec![true, true],
            faults: FaultPlan::chaos(11, 4, 20),
            assignment: Vec::new(),
        };
        let back = RunManifest::decode(&m.encode()).unwrap();
        assert_eq!(back.faults, m.faults);
        assert_eq!(back.faults.chaos_seed(), Some(11));
        // Pre-recovery manifests carry no faults line ⇒ empty plan.
        let legacy: String = m
            .encode()
            .lines()
            .filter(|l| !l.starts_with("faults "))
            .collect::<Vec<_>>()
            .join("\n");
        let back = RunManifest::decode(&legacy).unwrap();
        assert!(back.faults.is_empty());
    }

    #[test]
    fn atomic_write_replaces_existing_file() {
        let dir = std::env::temp_dir().join(format!("dtrewl-ckpt-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.txt");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "two");
        assert!(!dir.join("m.txt.tmp").exists());
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

        /// Manifests round-trip for arbitrary shapes, including recorded
        /// chaos plans.
        #[test]
        fn manifest_round_trips(
            round in 0u64..1 << 40,
            digest in any::<u64>(),
            alive in proptest::collection::vec(any::<bool>(), 1..9),
            chaos in prop_oneof![
                (any::<u64>(), 2usize..6, 1u64..100).prop_map(Some),
                Just(None),
            ],
        ) {
            let faults = match chaos {
                Some((seed, ranks, rounds)) => FaultPlan::chaos(seed, ranks, rounds),
                None => FaultPlan::none(),
            };
            // Half the cases record a rank→window assignment (as a
            // rebalancing run would), the other half leave it implied.
            let assignment: Vec<usize> = if digest % 2 == 0 {
                alive.iter().map(|&a| usize::from(a)).collect()
            } else {
                Vec::new()
            };
            let m = RunManifest {
                round,
                ranks: alive.len(),
                digest,
                alive,
                faults,
                assignment,
            };
            let back = RunManifest::decode(&m.encode()).unwrap();
            prop_assert_eq!(back, m);
        }
    }
}
