//! Walker checkpointing.
//!
//! Production Wang–Landau runs on a real machine survive node failures by
//! periodically persisting each walker's state: the DOS estimate, visit
//! histogram, configuration, and schedule position. The format is a
//! versioned text format (hex-encoded IEEE-754, like `dt-nn`'s model
//! format) so restores are bit-exact.

use std::fmt;

use dt_codec::text::{Reader, Writer};
use dt_codec::TextError;
use dt_lattice::{Configuration, Species};

use crate::histogram::{DosEstimate, EnergyGrid, VisitHistogram};

/// Format version tag. v2 added the round-trip line and a trailing `end`
/// sentinel (so byte truncation is always detected); v1 files still
/// decode, with round-trip counters defaulting to zero.
const VERSION: u32 = 2;

/// Errors from [`WalkerCheckpoint::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Header missing or wrong version.
    BadHeader,
    /// A field was malformed or missing.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "bad checkpoint header"),
            CheckpointError::Malformed(w) => write!(f, "malformed checkpoint: {w}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<TextError> for CheckpointError {
    fn from(e: TextError) -> Self {
        match e {
            TextError::BadHeader | TextError::UnsupportedVersion(_) => CheckpointError::BadHeader,
            e => CheckpointError::Malformed(e.to_string()),
        }
    }
}

/// A serializable snapshot of a Wang–Landau walker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalkerCheckpoint {
    /// Energy window.
    pub e_min: f64,
    /// Energy window.
    pub e_max: f64,
    /// Bin count.
    pub num_bins: usize,
    /// `ln g` per bin.
    pub ln_g: Vec<f64>,
    /// Stage visits per bin.
    pub visits: Vec<u64>,
    /// Ever-visited mask.
    pub ever_visited: Vec<bool>,
    /// Species per site.
    pub species: Vec<u8>,
    /// Number of species.
    pub num_species: usize,
    /// Current energy.
    pub energy: f64,
    /// Current `ln f`.
    pub ln_f: f64,
    /// Total moves so far.
    pub total_moves: u64,
    /// Stage count so far.
    pub stages: u32,
    /// Is the 1/t schedule phase active?
    pub one_over_t_phase: bool,
    /// Round-trip tracking: last boundary touched (0 none, -1 low,
    /// +1 high).
    pub rt_last_boundary: i8,
    /// Round-trip tracking: completed boundary crossings.
    pub rt_crossings: u64,
    /// Round-trip tracking: moves inside completed crossings.
    pub rt_crossing_moves: u64,
    /// Round-trip tracking: `total_moves` at the open leg's start.
    pub rt_leg_start_moves: u64,
}

impl WalkerCheckpoint {
    /// Serialize to the versioned text format.
    pub fn encode(&self) -> String {
        let mut w = Writer::new("dtwl", VERSION);
        w.line("grid")
            .hex_f64(self.e_min)
            .hex_f64(self.e_max)
            .dec(self.num_bins);
        w.line("state")
            .hex_f64(self.energy)
            .hex_f64(self.ln_f)
            .dec(self.total_moves)
            .dec(self.stages)
            .dec(self.num_species)
            .flag(self.one_over_t_phase);
        w.line("ln_g").hex_f64s(&self.ln_g);
        w.line("visits").decs(&self.visits);
        w.line("ever").mask(&self.ever_visited);
        w.line("species").decs(&self.species);
        // Boundary side is encoded unsigned (0 none, 1 low, 2 high) to
        // keep the token grammar uniform.
        w.line("rt")
            .dec(match self.rt_last_boundary {
                -1 => 1,
                1 => 2,
                _ => 0,
            })
            .dec(self.rt_crossings)
            .dec(self.rt_crossing_moves)
            .dec(self.rt_leg_start_moves);
        w.line("end");
        w.finish()
    }

    /// Restore from [`WalkerCheckpoint::encode`] output.
    ///
    /// # Errors
    /// Returns [`CheckpointError`] on structural problems.
    pub fn decode(text: &str) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(text, "dtwl", &[1, VERSION])?;
        r.line("grid")?;
        let (e_min, e_max) = (r.hex_f64("e_min")?, r.hex_f64("e_max")?);
        let num_bins: usize = r.dec("num_bins")?;
        r.line("state")?;
        let (energy, ln_f) = (r.hex_f64("energy")?, r.hex_f64("ln_f")?);
        let total_moves = r.dec("total_moves")?;
        let stages = r.dec("stages")?;
        let num_species = r.dec("num_species")?;
        let one_over_t_phase = r.flag("phase flag")?;
        let ln_g = r.line("ln_g")?.rest_with("ln_g", Reader::hex_f64)?;
        let visits: Vec<u64> = r.line("visits")?.rest_with("visit", Reader::dec)?;
        let ever_visited = r.line("ever")?.mask("ever mask")?;
        let species = r.line("species")?.rest_with("species", Reader::dec)?;
        if ln_g.len() != num_bins || visits.len() != num_bins || ever_visited.len() != num_bins {
            return Err(CheckpointError::Malformed("bin-count mismatch".into()));
        }

        // v2: round-trip counters plus a trailing `end` sentinel, both
        // required — the sentinel makes any byte truncation detectable.
        // v1 files predate the adaptive-windows layer: counters are zero.
        let mut rt = [0u64; 4];
        if r.version() >= 2 {
            rt = r.line("rt")?.decs("rt field")?;
            r.line("end")?;
        }
        Ok(WalkerCheckpoint {
            e_min,
            e_max,
            num_bins,
            ln_g,
            visits,
            ever_visited,
            species,
            num_species,
            energy,
            ln_f,
            total_moves,
            stages,
            one_over_t_phase,
            rt_last_boundary: match rt[0] {
                0 => 0,
                1 => -1,
                2 => 1,
                _ => return Err(CheckpointError::Malformed("bad rt line".into())),
            },
            rt_crossings: rt[1],
            rt_crossing_moves: rt[2],
            rt_leg_start_moves: rt[3],
        })
    }

    /// Rebuild the grid described by this checkpoint.
    pub fn grid(&self) -> EnergyGrid {
        EnergyGrid::new(self.e_min, self.e_max, self.num_bins)
    }

    /// Rebuild the DOS estimate.
    pub fn dos(&self) -> DosEstimate {
        DosEstimate::from_parts(self.grid(), self.ln_g.clone())
    }

    /// Rebuild the visit histogram.
    pub fn histogram(&self) -> VisitHistogram {
        let mut h = VisitHistogram::new(self.num_bins);
        // Bulk restore: one `record_n` per bin regardless of how many
        // visits the checkpoint carries (`n == 0` still marks the
        // ever-visited bit for bins visited only in earlier stages).
        for (bin, (&v, &ever)) in self.visits.iter().zip(&self.ever_visited).enumerate() {
            if ever || v > 0 {
                h.record_n(bin, v);
            }
        }
        h
    }

    /// Rebuild the configuration.
    pub fn configuration(&self) -> Configuration {
        Configuration::from_species(
            self.species.iter().map(|&b| Species(b)).collect(),
            self.num_species,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WalkerCheckpoint {
        WalkerCheckpoint {
            e_min: -1.5,
            e_max: 0.25,
            num_bins: 3,
            ln_g: vec![0.0, 12.5, 3.25e-300],
            visits: vec![5, 0, 7],
            ever_visited: vec![true, false, true],
            species: vec![0, 1, 2, 3, 0, 1],
            num_species: 4,
            energy: -0.75,
            ln_f: 0.03125,
            total_moves: 123_456,
            stages: 9,
            one_over_t_phase: true,
            rt_last_boundary: -1,
            rt_crossings: 14,
            rt_crossing_moves: 98_765,
            rt_leg_start_moves: 120_000,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let cp = sample();
        let back = WalkerCheckpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn rebuilders_reconstruct_state() {
        let cp = sample();
        assert_eq!(cp.grid().num_bins(), 3);
        assert_eq!(cp.dos().ln_g(), &cp.ln_g[..]);
        let h = cp.histogram();
        assert_eq!(h.visits(0), 5);
        assert!(!h.ever_visited(1));
        assert!(h.ever_visited(2));
        let config = cp.configuration();
        assert_eq!(config.num_sites(), 6);
        assert_eq!(config.species_at(3), Species(3));
    }

    #[test]
    fn rt_line_is_optional_for_old_checkpoints() {
        let cp = sample();
        let text = cp.encode();
        // Shape of a pre-adaptive v1 file: old header, no rt line, no
        // end sentinel.
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("rt ") && *l != "end")
            .map(|l| if l == "dtwl v2" { "dtwl v1" } else { l })
            .collect::<Vec<_>>()
            .join("\n");
        let back = WalkerCheckpoint::decode(&legacy).unwrap();
        assert_eq!(back.rt_last_boundary, 0);
        assert_eq!(back.rt_crossings, 0);
        assert_eq!(back.rt_crossing_moves, 0);
        assert_eq!(back.rt_leg_start_moves, 0);
        // Everything else restores as usual.
        assert_eq!(back.ln_g, cp.ln_g);
        assert_eq!(back.total_moves, cp.total_moves);
    }

    #[test]
    fn ever_mask_and_phase_flag_accept_only_zero_and_one() {
        // Nothing but `0` may pass for "not visited", nothing but `1` for
        // "1/t phase on".
        let text = sample().encode();
        for bad in [
            text.replace("ever 101", "ever 1x1"),
            text.replace("ever 101", "ever 121"),
            text.replace(" 9 4 1\n", " 9 4 2\n"),
        ] {
            assert_ne!(bad, text);
            assert!(matches!(
                WalkerCheckpoint::decode(&bad),
                Err(CheckpointError::Malformed(_))
            ));
        }
    }

    #[test]
    fn rejects_corruption() {
        let cp = sample();
        let text = cp.encode();
        assert_eq!(
            WalkerCheckpoint::decode("nope"),
            Err(CheckpointError::BadHeader)
        );
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(WalkerCheckpoint::decode(&truncated).is_err());
        let tampered = text.replace("visits 5 0 7", "visits 5 0");
        assert!(matches!(
            WalkerCheckpoint::decode(&tampered),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
