//! Property tests of the public exchange-protocol surface: the pairing
//! function and the round-tagged message namespace.

use dt_rewl::exchange::tags;
use dt_rewl::{exchange_role, ExchangeRole};
use proptest::prelude::*;

/// The uniform rank→window map of a `w × m` layout, with `moved` ranks
/// (picked by `seed`) reassigned to arbitrary windows — the shapes
/// dynamic walker reallocation can produce.
fn assignment(w: usize, m: usize, moved: usize, seed: u64) -> Vec<usize> {
    let mut a: Vec<usize> = (0..w * m).map(|r| r / w).collect();
    let mut x = seed | 1;
    for _ in 0..moved {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let rank = (x >> 8) as usize % a.len();
        a[rank] = (x >> 40) as usize % m;
    }
    a
}

proptest! {
    /// If the pairing names a partner, the partner names this rank back
    /// with the complementary role — no rank can ever wait on a peer
    /// that is not talking to it. Holds for the uniform assignment
    /// (`moved == 0`) and for any skewed one.
    #[test]
    fn pairing_symmetry(
        w in 1usize..6,
        m in 1usize..6,
        moved in 0usize..4,
        seed in any::<u64>(),
        round in 0u64..1_000,
        rank_pick in any::<usize>(),
    ) {
        let a = assignment(w, m, moved, seed);
        let rank = rank_pick % (w * m);
        match exchange_role(rank, round, &a, m) {
            ExchangeRole::Initiator { partner } => {
                prop_assert!(partner < w * m);
                prop_assert_eq!(
                    exchange_role(partner, round, &a, m),
                    ExchangeRole::Responder { initiator: rank }
                );
                // Initiators live in the window below their partner.
                prop_assert_eq!(a[rank] + 1, a[partner]);
            }
            ExchangeRole::Responder { initiator } => {
                prop_assert!(initiator < w * m);
                prop_assert_eq!(
                    exchange_role(initiator, round, &a, m),
                    ExchangeRole::Initiator { partner: rank }
                );
            }
            ExchangeRole::Idle => {}
        }
    }

    /// Round-tagged protocol messages can never collide across rounds,
    /// tags, or with the transport's reserved collective space (bit 63).
    #[test]
    fn round_tags_are_injective(
        tag_a in 1u64..=14,
        tag_b in 1u64..=14,
        round_a in 0u64..100_000,
        round_b in 0u64..100_000,
    ) {
        let a = tags::with_round(tag_a, round_a);
        let b = tags::with_round(tag_b, round_b);
        prop_assert!(a < 1 << 63);
        prop_assert!(b < 1 << 63);
        if (tag_a, round_a) != (tag_b, round_b) {
            prop_assert_ne!(a, b);
        } else {
            prop_assert_eq!(a, b);
        }
    }

    /// A single window (or a single total rank) never exchanges.
    #[test]
    fn single_window_is_always_idle(w in 1usize..6, round in 0u64..64, slot_pick in any::<usize>()) {
        let rank = slot_pick % w;
        prop_assert_eq!(exchange_role(rank, round, &vec![0; w], 1), ExchangeRole::Idle);
    }
}
