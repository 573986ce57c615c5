//! Sorting: the local radix sort, bitonic sort and sample sort of the
//! paper's Section 4.2/4.3.

pub mod bitonic;
pub mod parallel_radix;
pub mod radix;
pub mod sample;

use pcm_sim::Message;

/// Copies a message's `u32` payload into `dst`.
///
/// # Panics
/// If the payload is not exactly `dst.len()` words.
fn copy_u32s(dst: &mut [u32], msg: &Message) {
    let words = msg.u32s();
    assert_eq!(words.len(), dst.len(), "payload length mismatch");
    dst.copy_from_slice(words);
}

/// Groups words into consecutive `(first, second)` pairs, dropping an
/// odd trailing word.
fn u32_pairs(words: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    words.chunks_exact(2).map(|pair| (pair[0], pair[1]))
}
