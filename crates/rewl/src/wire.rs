//! Byte-level encoding of the messages REWL ranks exchange.
//!
//! Kept deliberately simple (little-endian scalars, packed vectors,
//! length-prefixed fields, all through [`dt_codec::bin`]) — this plays
//! the role MPI derived datatypes play in the paper's implementation.
//!
//! Decoders return [`WireError`] instead of panicking: on a faulty
//! cluster a payload may arrive truncated or be paired with the wrong
//! tag, and a malformed message must surface as a recoverable protocol
//! error on the receiving rank, never abort it.

use std::fmt;

use dt_codec::bin::{Reader, Writer};
use dt_codec::BinError;
use dt_lattice::{Configuration, Species};
use dt_telemetry::{Phase, PhaseStat, RankTelemetry};

use crate::checkpoint::RankCheckpoint;

/// A malformed wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than a field it must carry.
    Truncated {
        /// Minimum bytes required.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Payload length is not a multiple of the element size.
    Ragged {
        /// Element size in bytes.
        element: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A species label is outside `0..num_species`.
    BadSpecies {
        /// The offending label.
        species: u8,
        /// Number of species in the system.
        num_species: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A phase name does not match any [`Phase`].
    BadPhase,
    /// A shipped walker snapshot failed to decode.
    BadWalker,
    /// A gather piece's rank state failed to decode.
    BadPiece,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated payload: need {needed} bytes, got {got}")
            }
            WireError::Ragged { element, got } => {
                write!(f, "ragged payload: {got} bytes not a multiple of {element}")
            }
            WireError::BadSpecies {
                species,
                num_species,
            } => {
                write!(
                    f,
                    "species {species} out of range (num_species {num_species})"
                )
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadPhase => write!(f, "unknown telemetry phase name"),
            WireError::BadWalker => write!(f, "malformed walker snapshot"),
            WireError::BadPiece => write!(f, "malformed gather piece"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<BinError> for WireError {
    fn from(e: BinError) -> Self {
        match e {
            BinError::Truncated { needed, got } => WireError::Truncated { needed, got },
            BinError::Ragged { element, got } => WireError::Ragged { element, got },
            BinError::BadUtf8 => WireError::BadUtf8,
        }
    }
}

/// Serialize a full walker snapshot for the rebalance reshard (donor →
/// migrant). The checkpoint text format is already versioned and
/// bit-exact, so the wire form is its UTF-8 bytes.
pub fn encode_walker(cp: &dt_wanglandau::WalkerCheckpoint) -> Vec<u8> {
    cp.encode().into_bytes()
}

/// Decode an [`encode_walker`] payload.
///
/// # Errors
/// [`WireError::BadUtf8`] on invalid UTF-8, [`WireError::BadWalker`] when
/// the checkpoint text does not parse.
pub fn decode_walker(bytes: &[u8]) -> Result<dt_wanglandau::WalkerCheckpoint, WireError> {
    let text = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
    dt_wanglandau::WalkerCheckpoint::decode(text).map_err(|_| WireError::BadWalker)
}

/// Encode `(energy, configuration)` for a replica-exchange transfer.
pub fn encode_state(energy: f64, config: &Configuration) -> Vec<u8> {
    Writer::with_capacity(8 + config.num_sites())
        .f64(energy)
        .extend(config.species().iter().map(|s| s.0))
        .finish()
}

/// Decode a [`encode_state`] payload, validating every species label
/// against `num_species`.
///
/// # Errors
/// [`WireError::Truncated`] when the energy prefix is missing,
/// [`WireError::BadSpecies`] on an out-of-range label.
pub fn decode_state(bytes: &[u8], num_species: usize) -> Result<(f64, Configuration), WireError> {
    let mut r = Reader::new(bytes);
    let energy = r.f64()?;
    let species = r
        .rest()
        .iter()
        .map(|&b| {
            if usize::from(b) < num_species {
                Ok(Species(b))
            } else {
                Err(WireError::BadSpecies {
                    species: b,
                    num_species,
                })
            }
        })
        .collect::<Result<_, _>>()?;
    Ok((energy, Configuration::from_species(species, num_species)))
}

/// Encode a vector of `f64`.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    Writer::new().f64s(values).finish()
}

/// Decode a [`encode_f64s`] payload.
///
/// # Errors
/// [`WireError::Ragged`] when the length is not a multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>, WireError> {
    Ok(Reader::new(bytes).rest_f64s()?)
}

/// Encode a vector of `u64`.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    Writer::new().u64s(values).finish()
}

/// Decode a [`encode_u64s`] payload.
///
/// # Errors
/// [`WireError::Ragged`] when the length is not a multiple of 8.
pub fn decode_u64s(bytes: &[u8]) -> Result<Vec<u64>, WireError> {
    Ok(Reader::new(bytes).rest_u64s()?)
}

/// What one rank contributes to the final gather, shipped to rank 0 as
/// one message: its final state in the form a rank's state already has —
/// its checkpoint, window `ln g`, visited mask, move statistics, exchange
/// and round-trip counters and SRO totals included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatherPiece {
    /// The rank's state at the end of the run.
    pub state: RankCheckpoint,
    /// Three words the pinned wire format keeps ahead of the state; the
    /// engine writes zeros and nothing reads them.
    pub reserved: [u64; 3],
}

/// Encode a [`GatherPiece`]: the three reserved words, then the checkpoint
/// text (whose `end` sentinel makes the message delimit itself).
pub fn encode_piece(p: &GatherPiece) -> Vec<u8> {
    Writer::new()
        .u64s(&p.reserved)
        .raw(p.state.encode().as_bytes())
        .finish()
}

/// Decode an [`encode_piece`] payload.
///
/// # Errors
/// [`WireError::Truncated`] on a short payload, [`WireError::BadUtf8`] /
/// [`WireError::BadPiece`] when the rank state does not decode.
pub fn decode_piece(bytes: &[u8]) -> Result<GatherPiece, WireError> {
    let mut r = Reader::new(bytes);
    let reserved = [r.u64()?, r.u64()?, r.u64()?];
    let text = std::str::from_utf8(r.rest()).map_err(|_| WireError::BadUtf8)?;
    Ok(GatherPiece {
        state: RankCheckpoint::decode(text).map_err(|_| WireError::BadPiece)?,
        reserved,
    })
}

/// Encode one rank's telemetry snapshot for a cross-process gather (the
/// TCP backend ships these to rank 0; the thread backend passes them in
/// memory).
pub fn encode_telemetry(tel: &RankTelemetry) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(tel.rank as u64).u32(tel.phases.len() as u32);
    for p in &tel.phases {
        w.str(p.phase.name())
            .f64(p.total_s)
            .u64(p.count)
            .f64(p.p50_s)
            .f64(p.p99_s);
    }
    w.u32(tel.counters.len() as u32);
    for (name, v) in &tel.counters {
        w.str(name).u64(*v);
    }
    w.u32(tel.gauges.len() as u32);
    for (name, v) in &tel.gauges {
        w.str(name).f64(*v);
    }
    w.finish()
}

/// Decode an [`encode_telemetry`] payload.
///
/// # Errors
/// [`WireError::Truncated`] on short payloads, [`WireError::BadUtf8`] /
/// [`WireError::BadPhase`] on malformed names.
pub fn decode_telemetry(bytes: &[u8]) -> Result<RankTelemetry, WireError> {
    let mut r = Reader::new(bytes);
    let rank = r.u64()? as usize;
    // Vectors grow with what the payload holds, never with its counts.
    let mut phases = Vec::new();
    for _ in 0..r.u32()? {
        phases.push(PhaseStat {
            phase: Phase::from_name(r.str()?).ok_or(WireError::BadPhase)?,
            total_s: r.f64()?,
            count: r.u64()?,
            p50_s: r.f64()?,
            p99_s: r.f64()?,
        });
    }
    let mut counters = Vec::new();
    for _ in 0..r.u32()? {
        counters.push((r.str()?.to_string(), r.u64()?));
    }
    let mut gauges = Vec::new();
    for _ in 0..r.u32()? {
        gauges.push((r.str()?.to_string(), r.f64()?));
    }
    Ok(RankTelemetry {
        rank,
        phases,
        counters,
        gauges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_lattice::Composition;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn state_round_trip() {
        let comp = Composition::equiatomic(4, 32).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let c = Configuration::random(&comp, &mut rng);
        let bytes = encode_state(-1.25, &c);
        let (e, back) = decode_state(&bytes, 4).unwrap();
        assert_eq!(e, -1.25);
        assert_eq!(back, c);
    }

    #[test]
    fn f64_and_u64_round_trips() {
        let f = vec![1.0, -2.5, f64::MIN_POSITIVE, 1e300];
        assert_eq!(decode_f64s(&encode_f64s(&f)).unwrap(), f);
        let u = vec![0u64, 7, u64::MAX];
        assert_eq!(decode_u64s(&encode_u64s(&u)).unwrap(), u);
    }

    #[test]
    fn gather_piece_round_trips_and_delimits_itself() {
        let mut stats = dt_proposal::MoveStats::new();
        stats.record_n("local-swap", 100, 37);
        let piece = GatherPiece {
            state: RankCheckpoint {
                exchange_attempts: 12,
                exchange_accepted: 4,
                rebalanced: 2,
                stats,
                obs_dim: 2,
                sro_sums: vec![1.0, 2.0, 0.0, 0.0, 5.5, -0.5],
                sro_counts: vec![4, 0, 2],
                walker: sample_walker(),
                ..RankCheckpoint::default()
            },
            reserved: [1, 2_000_000, 3],
        };
        let bytes = encode_piece(&piece);
        assert_eq!(decode_piece(&bytes).unwrap(), piece);
        // Any cut loses at least the trailing newline of `end`, which
        // alone still decodes to the same piece; anything shorter fails.
        assert_eq!(decode_piece(&bytes[..bytes.len() - 1]).unwrap(), piece);
        for cut in 0..bytes.len() - 1 {
            assert!(decode_piece(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    fn sample_walker() -> dt_wanglandau::WalkerCheckpoint {
        dt_wanglandau::WalkerCheckpoint {
            e_min: -2.0,
            e_max: 3.5,
            num_bins: 3,
            ln_g: vec![0.0, 1.25, -7.5e-12],
            visits: vec![4, 0, 9],
            ever_visited: vec![true, false, true],
            species: vec![0, 1, 1, 0],
            num_species: 2,
            energy: 0.625,
            ln_f: 0.125,
            total_moves: 777,
            stages: 4,
            one_over_t_phase: false,
            rt_last_boundary: 1,
            rt_crossings: 3,
            rt_crossing_moves: 250,
            rt_leg_start_moves: 700,
        }
    }

    #[test]
    fn walker_snapshot_round_trips_bit_exact() {
        let cp = sample_walker();
        assert_eq!(decode_walker(&encode_walker(&cp)).unwrap(), cp);
        assert_eq!(decode_walker(&[0xff, 0xfe]), Err(WireError::BadUtf8));
        assert_eq!(decode_walker(b"dtwl v9\n"), Err(WireError::BadWalker));
    }

    #[test]
    fn truncated_state_is_rejected() {
        assert_eq!(
            decode_state(&[0u8; 5], 2),
            Err(WireError::Truncated { needed: 8, got: 5 })
        );
    }

    #[test]
    fn out_of_range_species_is_rejected() {
        let comp = Composition::equiatomic(2, 16).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let c = Configuration::random(&comp, &mut rng);
        let mut bytes = encode_state(0.0, &c);
        *bytes.last_mut().unwrap() = 7;
        assert_eq!(
            decode_state(&bytes, 2),
            Err(WireError::BadSpecies {
                species: 7,
                num_species: 2
            })
        );
    }

    #[test]
    fn ragged_vectors_are_rejected() {
        assert_eq!(
            decode_f64s(&[0u8; 12]),
            Err(WireError::Ragged {
                element: 8,
                got: 12
            })
        );
        assert_eq!(
            decode_u64s(&[0u8; 9]),
            Err(WireError::Ragged { element: 8, got: 9 })
        );
    }

    #[test]
    fn telemetry_round_trip() {
        use dt_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        {
            let _s = tel.span(Phase::MoveBatch);
        }
        tel.add("moves", 12);
        tel.set_gauge("ln_f", 0.5);
        let snap = tel.snapshot(3);
        let back = decode_telemetry(&encode_telemetry(&snap)).unwrap();
        assert_eq!(back.rank, snap.rank);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.phases.len(), snap.phases.len());
        for (a, b) in back.phases.iter().zip(&snap.phases) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_s.to_bits(), b.total_s.to_bits());
        }
    }

    #[test]
    fn truncated_telemetry_is_rejected() {
        let tel = dt_telemetry::Telemetry::enabled();
        let bytes = encode_telemetry(&tel.snapshot(0));
        assert!(matches!(
            decode_telemetry(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }
}
