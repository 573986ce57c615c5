//! Collision-safe memoization of deterministic pricing results.
//!
//! All three machine models price a superstep from a *canonical pattern
//! fingerprint* — the superstep's full send-record list — and algorithms
//! repeat the same patterns for thousands of supersteps (a bitonic sort
//! replays a handful of bit-flip exchanges; a stencil replays one shift).
//! [`PricingCache`] memoizes the deterministic part of those prices.
//!
//! Design constraints, in order:
//!
//! * **collision safety** — the predecessor of this module (the MasPar's
//!   private `route_cache`) keyed on a bare 64-bit hash with no
//!   verification, so two rounds colliding on the hash would silently
//!   share a `RouteOutcome`. Here every slot stores its full key and a
//!   hit requires an exact key comparison; a collision is just a miss.
//! * **bounded memory with real eviction** — the table is direct-mapped:
//!   a new key evicts whatever occupied its slot (counted in
//!   [`CacheStats::evictions`]) instead of silently refusing to cache
//!   once a hard cap is reached. Keys longer than `max_key_words` bypass
//!   the cache entirely (counted in [`CacheStats::bypasses`]) so a
//!   pathological pattern cannot pin megabytes of key storage.
//! * **zero steady-state allocation** — slot keys are reusable `Vec`s;
//!   once the working set of patterns has been seen, hits (and evictions
//!   whose key fits the slot's existing capacity) do not allocate.
//!
//! Only *deterministic* values may be cached. The per-superstep jitter
//! draw stays outside the cache — every network model draws it from the
//! sequential rng in pattern order whether the lookup hits or misses —
//! so enabling or disabling the memo cannot move a golden digest.

/// Hit/miss accounting of a [`PricingCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored entry (exact key match).
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Misses that replaced an occupied slot.
    pub evictions: u64,
    /// Lookups skipped because the key exceeded the length cap.
    pub bypasses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.bypasses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)] // diagnostics only
        {
            self.hits as f64 / total as f64
        }
    }
}

/// One direct-mapped slot: the full key plus the memoized value.
#[derive(Clone, Debug)]
struct CacheSlot<V> {
    hash: u64,
    key: Vec<u64>,
    value: Option<V>,
}

/// A direct-mapped memo table from canonical `u64`-word fingerprints to
/// pricing values. See the module docs for the design rationale.
#[derive(Clone, Debug)]
pub struct PricingCache<V> {
    slots: Box<[CacheSlot<V>]>,
    mask: usize,
    max_key_words: usize,
    stats: CacheStats,
    /// Parking spot for values computed on a bypass, so lookups can
    /// always hand out a reference into the cache.
    bypass: Option<V>,
}

/// Multiply-xor hash over the key words. Quality only has to spread keys
/// across the slot table — correctness never depends on it, because hits
/// verify the stored key — so this is deliberately much cheaper than the
/// `DefaultHasher` (SipHash) it replaces on the pricing hot path. Four
/// independent lanes break the multiply latency chain (a single-lane
/// multiply-xor fold is latency-bound at ~2.5 ns/word; this runs at
/// roughly a quarter of that on long keys).
fn hash_key(key: &[u64]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    const M2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    let mut h0 = (key.len() as u64).wrapping_add(M);
    let mut h1 = 0x517C_C1B7_2722_0A95u64;
    let mut h2 = 0x2545_F491_4F6C_DD1Du64;
    let mut h3 = 0x27D4_EB2F_1656_67C5u64;
    let mut chunks = key.chunks_exact(4);
    for c in &mut chunks {
        h0 = (h0 ^ c[0]).wrapping_mul(M);
        h1 = (h1 ^ c[1]).wrapping_mul(M2);
        h2 = (h2 ^ c[2]).wrapping_mul(M);
        h3 = (h3 ^ c[3]).wrapping_mul(M2);
    }
    let mut h = h0 ^ h1.rotate_left(16) ^ h2.rotate_left(32) ^ h3.rotate_left(48);
    for &w in chunks.remainder() {
        h = (h ^ w).wrapping_mul(M);
        h ^= h >> 29;
    }
    h = (h ^ (h >> 29)).wrapping_mul(M);
    h ^ (h >> 32)
}

impl<V> PricingCache<V> {
    /// A cache with `slot_count` slots (rounded up to a power of two)
    /// whose keys are capped at `max_key_words` words.
    pub fn new(slot_count: usize, max_key_words: usize) -> Self {
        let n = slot_count.max(1).next_power_of_two();
        let slots = (0..n)
            .map(|_| CacheSlot {
                hash: 0,
                key: Vec::new(),
                value: None,
            })
            .collect();
        PricingCache {
            slots,
            mask: n - 1,
            max_key_words,
            stats: CacheStats::default(),
            bypass: None,
        }
    }

    /// Hit/miss accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Direct-mapped slot index of a key hash.
    #[allow(clippy::cast_possible_truncation)] // masked to the table size
    fn slot_index(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    /// Returns the memoized value for `key`, computing and storing it on
    /// a miss. `compute` must be a pure function of `key`.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&mut self, key: &[u64], compute: F) -> &V {
        if key.len() > self.max_key_words {
            self.stats.bypasses += 1;
            self.bypass = Some(compute());
            return self.bypass.as_ref().expect("stored on the line above");
        }
        let h = hash_key(key);
        let idx = self.slot_index(h);
        let hit = {
            let slot = &self.slots[idx];
            slot.value.is_some() && slot.hash == h && slot.key == key
        };
        if hit {
            self.stats.hits += 1;
        } else {
            let slot = &mut self.slots[idx];
            if slot.value.is_some() {
                self.stats.evictions += 1;
            }
            self.stats.misses += 1;
            let v = compute();
            slot.hash = h;
            slot.key.clear();
            slot.key.extend_from_slice(key);
            slot.value = Some(v);
        }
        self.slots[idx].value.as_ref().expect("hit or just stored")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_stored_value_without_recompute() {
        let mut c: PricingCache<u64> = PricingCache::new(16, 64);
        let mut calls = 0;
        for _ in 0..3 {
            let v = c.get_or_insert_with(&[1, 2, 3], || {
                calls += 1;
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(calls, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!(s.hit_ratio() > 0.6);
    }

    #[test]
    fn colliding_keys_never_share_a_value() {
        // One slot: every distinct key collides by construction. The old
        // hash-only cache would hand key B the value stored for key A;
        // the stored-key check must force a recompute instead.
        let mut c: PricingCache<u64> = PricingCache::new(1, 64);
        assert_eq!(*c.get_or_insert_with(&[7], || 70), 70);
        assert_eq!(*c.get_or_insert_with(&[8], || 80), 80);
        assert_eq!(*c.get_or_insert_with(&[7], || 70), 70);
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 2, "slot reuse is surfaced, not silent");
    }

    #[test]
    fn same_hash_different_length_is_a_miss() {
        let mut c: PricingCache<u64> = PricingCache::new(1, 64);
        assert_eq!(*c.get_or_insert_with(&[], || 1), 1);
        assert_eq!(*c.get_or_insert_with(&[0], || 2), 2);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn long_keys_bypass() {
        let mut c: PricingCache<u64> = PricingCache::new(4, 2);
        let long = [9u64; 3];
        assert_eq!(*c.get_or_insert_with(&long, || 5), 5);
        assert_eq!(*c.get_or_insert_with(&long, || 6), 6, "never cached");
        let s = c.stats();
        assert_eq!(s.bypasses, 2);
        assert_eq!(s.misses, 0);
    }
}
