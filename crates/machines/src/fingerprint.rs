//! Canonical pattern fingerprints for the machines' pricing memos.
//!
//! All three machines memoize whole-pattern pricing results keyed on the
//! complete send list (the MasPar stores the deterministic coefficient of
//! every jitter draw). The [`PricingCache`] verifies the *full* stored key
//! on lookup, so the encoding here only has to be injective, not
//! collision-resistant.
//!
//! [`PricingCache`]: pcm_sim::PricingCache

use pcm_sim::CommPattern;

/// Rebuilds `key_buf` as the canonical fingerprint of `pattern`.
///
/// The encoding is prefix-free, so equal fingerprints imply equal
/// patterns (given the network's fixed `p`):
///
/// * a word with bit 63 **set** is one complete *compact* record —
///   `kind` (2b), `src` (20b), `dst` (20b), `words` (11b), `bytes`
///   (10b) — which covers ordinary word traffic and keeps the key at one
///   word per record;
/// * a word with bit 63 **clear** is an *extended* header carrying
///   `kind` and `src`, followed by three raw words `dst`, `words`,
///   `bytes` — no field is ever truncated.
///
/// Sources with empty send lists contribute nothing; they cannot be
/// confused with anything else because every record carries its source.
pub(crate) fn pattern_key(key_buf: &mut Vec<u64>, pattern: &CommPattern) {
    key_buf.clear();
    for (src, recs) in pattern.sends.iter().enumerate() {
        let src = src as u64;
        for rec in recs {
            let dst = rec.dst as u64;
            let (words, bytes) = (u64::from(rec.logical_words), u64::from(rec.logical_bytes));
            let kind = rec.kind as u64;
            if src < (1 << 20) && dst < (1 << 20) && words < (1 << 11) && bytes < (1 << 10) {
                key_buf.push(
                    (1 << 63) | (kind << 61) | (src << 41) | (dst << 21) | (words << 10) | bytes,
                );
            } else {
                key_buf.push((kind << 61) | src);
                key_buf.push(dst);
                key_buf.push(words);
                key_buf.push(bytes);
            }
        }
    }
}
