//! Messages exchanged between virtual processors.
//!
//! Two kinds of messages exist, mirroring the two families of cost models in
//! the paper:
//!
//! * **word streams** ([`MsgKind::Words`]) — a sequence of fixed-size
//!   machine words, each of which is an independent network message. BSP and
//!   MP-BSP algorithms communicate this way. A single [`Message`] value can
//!   carry many words; the cost models still charge per word, but the
//!   simulator avoids allocating millions of tiny messages.
//! * **blocks** ([`MsgKind::Block`]) — one bulk transfer of arbitrary
//!   length, paying one startup cost `ell`. MP-BPRAM algorithms use these.
//!
//! Payload bytes store the *values* (used for algorithm correctness) and are
//! decoupled from *logical size accounting*: a message of `n` logical words
//! costs `n · w` bytes on the wire, where `w` is the platform word size,
//! regardless of how the simulator chose to represent the values in memory.
//!
//! Values travel as little-endian words. Senders encode through the
//! per-processor `PayloadPool`: payloads of up to [`INLINE_PAYLOAD`] bytes
//! are stored inline, larger ones are written into a recycled buffer that
//! is sized once and filled through a `chunks_exact_mut` zip, which
//! vectorizes. Receivers decode with [`Message::u32s`] or
//! [`Message::f64s`], iterators over the payload that allocate nothing, so
//! a closure can decode straight into the state it fills.

/// Identifier of a virtual processor.
pub type ProcId = usize;

/// How a message is priced by the network model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A stream of `logical_words` fixed-size words; each word is an
    /// independent network message occupying one communication round.
    Words,
    /// One bulk transfer with a single startup cost.
    Block,
    /// One bulk transfer over the neighbour (xnet) grid — the MasPar's
    /// second communication fabric, used by the vendor `matmul` intrinsic.
    /// Machines without an xnet price it like a [`MsgKind::Block`].
    Xnet,
}

/// Payloads at or below this many bytes are stored inline in the
/// [`Message`] value instead of on the heap — covers all single-word and
/// small multi-word traffic (e.g. four `u32`s or two `f64`s).
pub const INLINE_PAYLOAD: usize = 16;

/// The value bytes of a [`Message`]: inline for small word traffic,
/// heap-backed (and recyclable through a `PayloadPool`) for blocks.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Up to [`INLINE_PAYLOAD`] bytes stored in the message itself.
    Inline {
        /// Occupied prefix of `buf`.
        len: u8,
        /// Inline storage.
        buf: [u8; INLINE_PAYLOAD],
    },
    /// Heap storage for larger payloads.
    Heap(Vec<u8>),
}

impl Payload {
    /// An empty inline payload.
    pub fn empty() -> Self {
        Payload::Inline {
            len: 0,
            buf: [0u8; INLINE_PAYLOAD],
        }
    }

    /// Copies `bytes`, choosing inline storage when it fits.
    pub fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_PAYLOAD {
            let mut buf = [0u8; INLINE_PAYLOAD];
            buf[..bytes.len()].copy_from_slice(bytes);
            Payload::Inline {
                #[allow(clippy::cast_possible_truncation)] // <= INLINE_PAYLOAD
                len: bytes.len() as u8,
                buf,
            }
        } else {
            Payload::Heap(bytes.to_vec())
        }
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline { len, buf } => &buf[..usize::from(*len)],
            Payload::Heap(v) => v,
        }
    }
}

impl From<Box<[u8]>> for Payload {
    fn from(data: Box<[u8]>) -> Self {
        if data.len() <= INLINE_PAYLOAD {
            Payload::from_slice(&data)
        } else {
            Payload::Heap(data.into_vec())
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Smallest pooled buffer class, in bytes.
const POOL_MIN_CLASS: usize = 32;
/// Largest pooled buffer class, in bytes; bigger buffers are not retained.
const POOL_MAX_CLASS: usize = 1 << 20;

/// Largest heap payload the per-processor `PayloadPool` will retain and
/// recycle. Payloads above this size fall back to plain allocation on
/// every send — the static analyzer's buffer-capacity rule (A04 in
/// `pcm-audit`) certifies that no algorithm's plan ever crosses it, so the
/// allocation-free superstep hot path holds across the whole sweep grid.
pub const MAX_POOLED_PAYLOAD: usize = POOL_MAX_CLASS;
/// Number of power-of-two size classes between the min and max class.
const POOL_CLASSES: usize = (POOL_MAX_CLASS / POOL_MIN_CLASS).ilog2() as usize + 1;
/// Retained buffers per class (per processor); excess buffers are freed.
const POOL_CLASS_CAP: usize = 32;

/// A size-classed arena of heap payload buffers.
///
/// Each virtual processor owns one pool. Sends draw buffers from the
/// sender's pool; after a message is consumed, the [`Machine`] exchange
/// recycles its heap buffer back to the *sender's* pool (sender-affine),
/// so steady-state block traffic stops allocating even when the
/// communication pattern is skewed.
///
/// [`Machine`]: crate::machine::Machine
#[derive(Debug, Default)]
pub(crate) struct PayloadPool {
    /// `classes[c]` holds buffers with capacity ≥ `POOL_MIN_CLASS << c`.
    classes: Vec<Vec<Vec<u8>>>,
}

impl PayloadPool {
    /// Class whose buffers can hold `bytes`, or `None` above the max class.
    fn class_for_alloc(bytes: usize) -> Option<usize> {
        if bytes > POOL_MAX_CLASS {
            return None;
        }
        let size = bytes.max(POOL_MIN_CLASS).next_power_of_two();
        Some((size / POOL_MIN_CLASS).ilog2() as usize)
    }

    /// Class a buffer of `capacity` can serve, or `None` if unretainable
    /// (too small, or above the max class).
    fn class_for_recycle(capacity: usize) -> Option<usize> {
        if !(POOL_MIN_CLASS..=POOL_MAX_CLASS).contains(&capacity) {
            return None;
        }
        // Floor power of two: the buffer fully covers this class.
        Some((capacity / POOL_MIN_CLASS).ilog2() as usize)
    }

    /// An empty buffer with capacity for at least `bytes`, recycled when
    /// possible.
    pub fn alloc(&mut self, bytes: usize) -> Vec<u8> {
        if let Some(cls) = Self::class_for_alloc(bytes) {
            if let Some(mut buf) = self.classes.get_mut(cls).and_then(Vec::pop) {
                buf.clear();
                return buf;
            }
            // Allocate the full class size so the buffer lands back in the
            // same class on recycle.
            Vec::with_capacity(POOL_MIN_CLASS << cls)
        } else {
            Vec::with_capacity(bytes)
        }
    }

    /// Returns a consumed payload's heap buffer to the pool. Inline
    /// payloads and oversized or over-cap buffers are simply dropped.
    pub fn recycle(&mut self, payload: Payload) {
        if let Payload::Heap(buf) = payload {
            if let Some(cls) = Self::class_for_recycle(buf.capacity()) {
                if self.classes.is_empty() {
                    self.classes.resize_with(POOL_CLASSES, Vec::new);
                }
                if self.classes[cls].len() < POOL_CLASS_CAP {
                    self.classes[cls].push(buf);
                }
            }
        }
    }
}

/// A message in flight between two virtual processors.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Free-form tag for the algorithm's own bookkeeping (phase, bucket id).
    pub tag: u32,
    /// Pricing kind.
    pub kind: MsgKind,
    /// Number of logical machine words this message represents. `u32`
    /// (with `logical_bytes`) keeps the struct at 64 bytes, one cache
    /// line per message in the outboxes that pricing walks and receivers
    /// index into; a single message cannot carry 4 Gi words.
    pub logical_words: u32,
    /// Number of bytes on the (simulated) wire: `logical_words · w`.
    pub logical_bytes: u32,
    /// The actual values, for algorithm correctness.
    pub(crate) payload: Payload,
}

impl Message {
    /// A payload-free message: only the metadata that pricing and the
    /// analyzers read, with tag 0. Hand-built [`crate::CommPattern`]s
    /// (pricing tests, the audit rules' fixtures) are made of these.
    ///
    /// # Panics
    /// Panics if `logical_words` or `logical_bytes` exceeds `u32::MAX`.
    pub fn header(
        src: ProcId,
        dst: ProcId,
        kind: MsgKind,
        logical_words: usize,
        logical_bytes: usize,
    ) -> Message {
        let size = |n: usize| u32::try_from(n).expect("a single message carries < 4 Gi words");
        Message {
            src,
            dst,
            tag: 0,
            kind,
            logical_words: size(logical_words),
            logical_bytes: size(logical_bytes),
            payload: Payload::empty(),
        }
    }

    /// The payload bytes (the actual values, for algorithm correctness).
    #[inline]
    pub fn data(&self) -> &[u8] {
        self.payload.as_slice()
    }

    /// Consumes the message, yielding its payload for recycling.
    pub(crate) fn into_payload(self) -> Payload {
        self.payload
    }

    /// The payload split into little-endian `N`-byte words.
    fn words<const N: usize>(&self, ty: &str) -> impl ExactSizeIterator<Item = [u8; N]> + '_ {
        assert!(
            self.data().len().is_multiple_of(N),
            "payload is not {ty}-aligned"
        );
        self.data()
            .chunks_exact(N)
            .map(|c| c.try_into().expect("chunks_exact(N) yields N-byte slices"))
    }

    /// Decodes the payload as `u32` values without allocating.
    ///
    /// # Panics
    /// Panics if the payload length is not a multiple of 4.
    pub fn u32s(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.words::<4>("u32").map(u32::from_le_bytes)
    }

    /// Decodes the payload as `f64` values without allocating.
    ///
    /// # Panics
    /// Panics if the payload length is not a multiple of 8.
    pub fn f64s(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.words::<8>("f64").map(f64::from_le_bytes)
    }

    /// The first `u32` of the payload — convenient for single-word messages.
    ///
    /// # Panics
    /// Panics if the payload is shorter than 4 bytes.
    pub fn word_u32(&self) -> u32 {
        u32::from_le_bytes(
            self.data()[..4]
                .try_into()
                .expect("word_u32 requires a payload of at least one u32 (4 bytes)"),
        )
    }

    /// The first `f64` of the payload.
    ///
    /// # Panics
    /// Panics if the payload is shorter than 8 bytes.
    pub fn word_f64(&self) -> f64 {
        f64::from_le_bytes(
            self.data()[..8]
                .try_into()
                .expect("word_f64 requires a payload of at least one f64 (8 bytes)"),
        )
    }
}

/// Encodes `u32` values to little-endian bytes.
pub fn encode_u32s(vals: &[u32]) -> Box<[u8]> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.into_boxed_slice()
}

/// Encodes `f64` values to little-endian bytes.
pub fn encode_f64s(vals: &[f64]) -> Box<[u8]> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.into_boxed_slice()
}

/// Encodes values into a [`Payload`] without touching the heap when the
/// result fits inline; otherwise draws a recycled buffer from `pool`.
macro_rules! pooled_encode {
    ($name:ident, $ty:ty, $width:expr) => {
        pub(crate) fn $name(pool: &mut PayloadPool, vals: &[$ty]) -> Payload {
            let bytes = vals.len() * $width;
            if bytes <= INLINE_PAYLOAD {
                let mut buf = [0u8; INLINE_PAYLOAD];
                for (chunk, v) in buf.chunks_exact_mut($width).zip(vals) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                Payload::Inline {
                    #[allow(clippy::cast_possible_truncation)] // <= INLINE_PAYLOAD
                    len: bytes as u8,
                    buf,
                }
            } else {
                let mut out = pool.alloc(bytes);
                out.resize(bytes, 0);
                for (chunk, v) in out.chunks_exact_mut($width).zip(vals) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                Payload::Heap(out)
            }
        }
    };
}

pooled_encode!(pooled_u32s, u32, 4);
pooled_encode!(pooled_f64s, f64, 8);

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    #[test]
    fn inline_threshold_and_pool_round_trip() {
        let mut pool = PayloadPool::default();
        // 4 u32s = 16 bytes: exactly at the inline boundary.
        let p = pooled_u32s(&mut pool, &[1, 2, 3, 4]);
        assert!(matches!(p, Payload::Inline { len: 16, .. }));
        // 5 u32s = 20 bytes: spills to the heap via the pool.
        let p = pooled_u32s(&mut pool, &[1, 2, 3, 4, 5]);
        let Payload::Heap(ref buf) = p else {
            panic!("20-byte payload must be heap-backed");
        };
        let cap = buf.capacity();
        assert!(cap >= 32, "pool allocates whole classes");
        // Recycle, then re-allocate: same buffer comes back, no growth.
        pool.recycle(p);
        let buf2 = pool.alloc(20);
        assert_eq!(buf2.capacity(), cap);
        assert!(buf2.is_empty());
    }

    #[test]
    fn pool_drops_oversized_buffers() {
        let mut pool = PayloadPool::default();
        pool.recycle(Payload::Heap(Vec::with_capacity(POOL_MAX_CLASS * 2)));
        pool.recycle(Payload::Heap(Vec::with_capacity(8)));
        pool.recycle(Payload::empty());
        // Nothing retainable was added; a fresh alloc is still served.
        assert!(pool.alloc(64).capacity() >= 64);
    }

    fn msg(data: Box<[u8]>) -> Message {
        Message {
            src: 0,
            dst: 1,
            tag: 0,
            kind: MsgKind::Block,
            logical_words: 1,
            logical_bytes: 4,
            payload: Payload::from(data),
        }
    }

    #[test]
    fn u32_round_trip() {
        let vals = [1u32, 0xDEAD_BEEF, u32::MAX];
        let m = msg(encode_u32s(&vals));
        assert!(m.u32s().eq(vals));
        assert_eq!(m.word_u32(), 1);
    }

    #[test]
    fn f64_round_trip() {
        let vals = [1.5f64, -0.25, f64::MAX];
        let m = msg(encode_f64s(&vals));
        assert_eq!(m.f64s().collect::<Vec<_>>(), vals);
        assert_eq!(m.word_f64(), 1.5);
    }

    #[test]
    fn decoders_read_back_the_pooled_encoders() {
        let mut pool = PayloadPool::default();
        let with = |payload| Message {
            payload,
            ..msg(Box::new([]))
        };
        // Heap payloads of each width, plus one inline.
        let words: Vec<u32> = (0..37).map(|i| i * 0x0101_0101).collect();
        let m = with(pooled_u32s(&mut pool, &words));
        assert_eq!(m.u32s().len(), words.len());
        assert!(m.u32s().eq(words.iter().copied()));
        let reals = [0.5f64, -3.0, 1e300];
        let m = with(pooled_f64s(&mut pool, &reals));
        assert_eq!(m.f64s().len(), 3);
        assert_eq!(m.f64s().collect::<Vec<_>>(), reals);
        let m = with(pooled_u32s(&mut pool, &[9, 8]));
        assert!(matches!(m.payload, Payload::Inline { len: 8, .. }));
        assert!(m.u32s().eq([9, 8]));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_payload_panics() {
        let m = msg(vec![1u8, 2, 3].into_boxed_slice());
        let _ = m.u32s();
    }
}
