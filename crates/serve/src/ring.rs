//! Consistent hashing: the router's map from artifact id to shard.
//!
//! A [`HashRing`] places `vnodes` virtual points per shard on a 64-bit
//! ring using FNV-1a (chosen over `std`'s `RandomState` because the
//! assignment must be *deterministic across processes*: the router and
//! every shard independently build the same ring from the same shard
//! list and must agree on which shard owns which artifact). Lookup is a
//! binary search for the first point clockwise of the key's hash.
//!
//! Virtual nodes smooth the distribution (with one point per shard, a
//! 2-shard ring can be arbitrarily lopsided) and bound reshuffling:
//! removing a shard only reassigns the keys that mapped to its points,
//! roughly `1/n` of the keyspace.

/// FNV-1a (64-bit, [`dt_codec::fnv1a`]) with a splitmix64 finalizer. FNV
/// alone is stable and dependency-free but avalanches poorly on short,
/// similar strings — vnode labels differ in a few trailing digits, and
/// the raw hashes cluster badly enough to skew shard loads 4x. The
/// finalizer mixes every input bit into every output bit; the
/// composition stays fully deterministic across processes.
fn fnv1a(bytes: &[u8]) -> u64 {
    // splitmix64 finalizer (Stafford variant 13).
    let mut h = dt_codec::fnv1a(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Number of virtual points each shard contributes to the ring.
pub const VNODES_PER_SHARD: usize = 64;

/// A consistent-hash ring over shard ids `0..shards`.
#[derive(Debug, Clone)]
pub struct HashRing {
    shards: usize,
    /// `(point, shard)` sorted by point; lookup binary-searches this.
    points: Vec<(u64, u16)>,
}

impl HashRing {
    /// A ring over `shards` shards with [`VNODES_PER_SHARD`] virtual
    /// points each. `shards` must fit in `u16` (a 65k-shard fleet is
    /// beyond anything this crate addresses).
    ///
    /// # Panics
    /// If `shards` is 0 or exceeds `u16::MAX`.
    pub fn new(shards: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(shards <= usize::from(u16::MAX), "shard count exceeds u16");
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for vnode in 0..VNODES_PER_SHARD {
                let label = format!("shard-{shard}-vnode-{vnode}");
                points.push((fnv1a(label.as_bytes()), shard as u16));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0); // astronomically unlikely, but keep lookup total
        HashRing { shards, points }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or clockwise of
    /// `hash(key)`, wrapping to the smallest point past the top.
    pub fn shard_for(&self, key: &str) -> usize {
        let h = fnv1a(key.as_bytes());
        let idx = match self.points.binary_search_by_key(&h, |p| p.0) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0, // wrap around
            Err(i) => i,
        };
        usize::from(self.points[idx].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("fcc-CrCoNi-L16-seed{i}")).collect()
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1);
        for k in keys(100) {
            assert_eq!(ring.shard_for(&k), 0);
        }
    }

    #[test]
    fn assignment_is_deterministic_across_ring_instances() {
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        for k in keys(200) {
            assert_eq!(a.shard_for(&k), b.shard_for(&k));
        }
    }

    #[test]
    fn every_shard_gets_a_reasonable_share() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        let n = 4000;
        for k in keys(n) {
            counts[ring.shard_for(&k)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            // With 64 vnodes the spread is well inside 2x of fair share.
            assert!(
                c > n / 8 && c < n / 2,
                "shard {shard} got {c} of {n} keys: {counts:?}"
            );
        }
    }

    #[test]
    fn growing_the_ring_moves_only_a_fraction_of_keys() {
        let before = HashRing::new(4);
        let after = HashRing::new(5);
        let n = 4000;
        let moved = keys(n)
            .iter()
            .filter(|k| before.shard_for(k) != after.shard_for(k))
            .count();
        // Ideal is n/5 = 800; allow generous slack but reject full
        // reshuffles (a modulo hash would move ~80%).
        assert!(moved < n / 2, "{moved} of {n} keys moved on 4 -> 5 shards");
        assert!(moved > 0, "adding a shard must claim some keys");
    }

    #[test]
    fn lookup_handles_wraparound() {
        // Some key hashes above the highest ring point and must wrap to
        // the lowest. Probe many keys so at least one exercises it; the
        // assertion is just "no panic, valid shard".
        let ring = HashRing::new(3);
        for k in keys(1000) {
            assert!(ring.shard_for(&k) < 3);
        }
    }
}
