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
//! A payload stores the *values* (used for algorithm correctness) and is
//! decoupled from *logical size accounting*: a message of `n` logical words
//! costs `n · w` bytes on the wire, where `w` is the platform word size,
//! regardless of how the simulator chose to represent the values in memory.
//!
//! Values travel as typed `u32` or `f64` values, never as bytes. A sender
//! hands them over as a [`Values`]: a slice is copied (inline up to
//! [`INLINE_PAYLOAD`] bytes, otherwise into a buffer drawn from the
//! per-processor `PayloadPool`), an owned `Vec` is moved into the message,
//! and an `Arc`'d buffer is shared by every message that carries it.
//! Receivers read the values in place with [`Message::u32s`] or
//! [`Message::f64s`], which return slices into the payload.

use std::sync::Arc;

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

/// Copied payloads at or below this many bytes are stored inline in the
/// [`Message`] value instead of on the heap — covers all single-word and
/// small multi-word traffic (four `u32`s or two `f64`s).
pub const INLINE_PAYLOAD: usize = 16;

/// The values of a [`Message`]: inline for small copied word traffic,
/// an owned buffer (recyclable through a `PayloadPool`) for copied or
/// moved blocks, or a buffer shared by several messages.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Up to four `u32`s stored in the message itself.
    U32 {
        /// Occupied prefix of `buf`.
        len: u8,
        /// Inline storage.
        buf: [u32; INLINE_PAYLOAD / 4],
    },
    /// Up to two `f64`s stored in the message itself.
    F64 {
        /// Occupied prefix of `buf`.
        len: u8,
        /// Inline storage.
        buf: [f64; INLINE_PAYLOAD / 8],
    },
    /// An owned buffer of `u32`s.
    U32s(Vec<u32>),
    /// An owned buffer of `f64`s.
    F64s(Vec<f64>),
    /// A `u32` buffer shared with other messages (and perhaps the sender).
    SharedU32(Arc<Vec<u32>>),
    /// An `f64` buffer shared with other messages (and perhaps the sender).
    SharedF64(Arc<Vec<f64>>),
}

/// A payload's values, by type.
#[derive(Clone, Copy, Debug)]
enum Slice<'a> {
    U32(&'a [u32]),
    F64(&'a [f64]),
}

impl Slice<'_> {
    fn is_empty(self) -> bool {
        match self {
            Slice::U32(v) => v.is_empty(),
            Slice::F64(v) => v.is_empty(),
        }
    }
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Payload::U32 {
            len: 0,
            buf: [0; INLINE_PAYLOAD / 4],
        }
    }

    fn slice(&self) -> Slice<'_> {
        match self {
            Payload::U32 { len, buf } => Slice::U32(&buf[..usize::from(*len)]),
            Payload::F64 { len, buf } => Slice::F64(&buf[..usize::from(*len)]),
            Payload::U32s(v) => Slice::U32(v),
            Payload::F64s(v) => Slice::F64(v),
            Payload::SharedU32(v) => Slice::U32(v),
            Payload::SharedF64(v) => Slice::F64(v),
        }
    }
}

/// Bitwise equality: `f64`s compare by their bits, so a NaN payload
/// equals itself. Payloads of different value types are equal only when
/// both are empty.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (self.slice(), other.slice()) {
            (Slice::U32(a), Slice::U32(b)) => a == b,
            (Slice::F64(a), Slice::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (a, b) => a.is_empty() && b.is_empty(),
        }
    }
}

/// The values a send carries, and how they get into the message.
///
/// Every send method takes `impl Into<Values>`: a slice (or a borrowed
/// `Vec` or array) is copied, an owned `Vec` is moved without touching its
/// values, and a borrowed `Arc<Vec<_>>` is shared, so `q` sends of one
/// replica cost `q` reference-count increments instead of `q` copies.
#[derive(Debug)]
pub enum Values<'v, T> {
    /// Copied into the message.
    Copied(&'v [T]),
    /// Moved into the message; the exchange recycles the buffer into the
    /// sender's pool once the receiver has read it.
    Moved(Vec<T>),
    /// Shared by reference count with the sender and other messages.
    Shared(&'v Arc<Vec<T>>),
}

impl<T> Values<'_, T> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Values::Copied(v) => v.len(),
            Values::Moved(v) => v.len(),
            Values::Shared(v) => v.len(),
        }
    }

    /// `true` when there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'v, T> From<&'v [T]> for Values<'v, T> {
    fn from(vals: &'v [T]) -> Self {
        Values::Copied(vals)
    }
}

impl<'v, T, const N: usize> From<&'v [T; N]> for Values<'v, T> {
    fn from(vals: &'v [T; N]) -> Self {
        Values::Copied(vals)
    }
}

impl<'v, T> From<&'v Vec<T>> for Values<'v, T> {
    fn from(vals: &'v Vec<T>) -> Self {
        Values::Copied(vals)
    }
}

impl<T> From<Vec<T>> for Values<'_, T> {
    fn from(vals: Vec<T>) -> Self {
        Values::Moved(vals)
    }
}

impl<'v, T> From<&'v Arc<Vec<T>>> for Values<'v, T> {
    fn from(vals: &'v Arc<Vec<T>>) -> Self {
        Values::Shared(vals)
    }
}

/// A value type a payload can hold.
pub(crate) trait Word: Copy + Default + 'static {
    /// Inline capacity of a payload, in values.
    const INLINE: usize = INLINE_PAYLOAD / std::mem::size_of::<Self>();
    /// An inline payload holding `vals` (at most [`Word::INLINE`]).
    fn inline(vals: &[Self]) -> Payload;
    /// A payload owning `vals`.
    fn owned(vals: Vec<Self>) -> Payload;
    /// A payload sharing `vals`.
    fn shared(vals: Arc<Vec<Self>>) -> Payload;
    /// The pool's size classes for this type.
    fn classes(pool: &mut PayloadPool) -> &mut Classes<Self>;

    /// The payload holding `vals`: copied values inline when they fit and
    /// otherwise in a buffer drawn from `pool`; moved and shared ones as
    /// they are.
    #[inline]
    fn payload(vals: Values<'_, Self>, pool: &mut PayloadPool) -> Payload {
        match vals {
            Values::Copied(vals) if vals.len() <= Self::INLINE => Self::inline(vals),
            Values::Copied(vals) => {
                let mut buf = Self::classes(pool).alloc(vals.len());
                buf.extend_from_slice(vals);
                Self::owned(buf)
            }
            Values::Moved(vals) => Self::owned(vals),
            Values::Shared(vals) => Self::shared(Arc::clone(vals)),
        }
    }
}

macro_rules! word {
    ($ty:ty, $inline:ident, $owned:ident, $shared:ident, $classes:ident) => {
        impl Word for $ty {
            #[inline]
            fn inline(vals: &[Self]) -> Payload {
                // A fixed-size fill: copying `vals.len()` values would call
                // `memcpy`, which costs more than these few stores.
                let buf = std::array::from_fn(|i| vals.get(i).copied().unwrap_or_default());
                Payload::$inline {
                    #[allow(clippy::cast_possible_truncation)] // <= INLINE
                    len: vals.len() as u8,
                    buf,
                }
            }

            #[inline]
            fn owned(vals: Vec<Self>) -> Payload {
                Payload::$owned(vals)
            }

            #[inline]
            fn shared(vals: Arc<Vec<Self>>) -> Payload {
                Payload::$shared(vals)
            }

            #[inline]
            fn classes(pool: &mut PayloadPool) -> &mut Classes<Self> {
                &mut pool.$classes
            }
        }
    };
}

word!(u32, U32, U32s, SharedU32, u32s);
word!(f64, F64, F64s, SharedF64, f64s);

/// Smallest pooled buffer class, in bytes.
const POOL_MIN_CLASS: usize = 32;
/// Largest pooled buffer class, in bytes; bigger buffers are not retained.
const POOL_MAX_CLASS: usize = 1 << 20;

/// Largest heap payload, in bytes, the per-processor `PayloadPool` will
/// retain and recycle. Copied payloads above this size fall back to plain
/// allocation on every send — the static analyzer's buffer-capacity rule
/// (A04 in `pcm-audit`) certifies that no algorithm's plan ever crosses
/// it, so the allocation-free superstep hot path holds across the whole
/// sweep grid.
pub const MAX_POOLED_PAYLOAD: usize = POOL_MAX_CLASS;
/// Number of power-of-two size classes between the min and max class.
const POOL_CLASSES: usize = (POOL_MAX_CLASS / POOL_MIN_CLASS).ilog2() as usize + 1;
/// Retained buffers per class (per processor and value type); excess
/// buffers are freed.
const POOL_CLASS_CAP: usize = 32;

/// Power-of-two size classes of recycled buffers of one value type,
/// measured in bytes.
#[derive(Debug)]
pub(crate) struct Classes<T> {
    /// `classes[c]` holds buffers with room for ≥ `POOL_MIN_CLASS << c`
    /// bytes.
    classes: Vec<Vec<Vec<T>>>,
}

impl<T> Default for Classes<T> {
    fn default() -> Self {
        Classes {
            classes: Vec::new(),
        }
    }
}

impl<T> Classes<T> {
    const SIZE: usize = std::mem::size_of::<T>();

    /// Class whose buffers can hold `bytes`, or `None` above the max class.
    fn class_for_alloc(bytes: usize) -> Option<usize> {
        if bytes > POOL_MAX_CLASS {
            return None;
        }
        let size = bytes.max(POOL_MIN_CLASS).next_power_of_two();
        Some((size / POOL_MIN_CLASS).ilog2() as usize)
    }

    /// Class a buffer of `bytes` capacity can serve, or `None` if
    /// unretainable (too small, or above the max class).
    fn class_for_recycle(bytes: usize) -> Option<usize> {
        if !(POOL_MIN_CLASS..=POOL_MAX_CLASS).contains(&bytes) {
            return None;
        }
        // Floor power of two: the buffer fully covers this class.
        Some((bytes / POOL_MIN_CLASS).ilog2() as usize)
    }

    /// An empty buffer with room for at least `len` values, recycled when
    /// possible.
    fn alloc(&mut self, len: usize) -> Vec<T> {
        if let Some(cls) = Self::class_for_alloc(len * Self::SIZE) {
            if let Some(mut buf) = self.classes.get_mut(cls).and_then(Vec::pop) {
                buf.clear();
                return buf;
            }
            // Allocate the full class size so the buffer lands back in the
            // same class on recycle.
            Vec::with_capacity((POOL_MIN_CLASS << cls) / Self::SIZE)
        } else {
            Vec::with_capacity(len)
        }
    }

    /// Keeps `buf` for a later [`Classes::alloc`], unless it is too small,
    /// too large or its class is full.
    fn recycle(&mut self, buf: Vec<T>) {
        if let Some(cls) = Self::class_for_recycle(buf.capacity() * Self::SIZE) {
            if self.classes.is_empty() {
                self.classes.resize_with(POOL_CLASSES, Vec::new);
            }
            if self.classes[cls].len() < POOL_CLASS_CAP {
                self.classes[cls].push(buf);
            }
        }
    }
}

/// A size-classed arena of payload buffers, one set of classes per value
/// type.
///
/// Each virtual processor owns one pool. Copying sends draw buffers from
/// the sender's pool, and `Ctx::buffer_u32`/`Ctx::buffer_f64` lend one
/// for a value list the processor will move into a send. After a message
/// is consumed, the [`Machine`] exchange recycles its owned buffer back to
/// the *sender's* pool (sender-affine), so steady-state block traffic
/// stops allocating even when the communication pattern is skewed. A
/// shared buffer returns when the last message holding it is recycled
/// and the sender kept no reference of its own.
///
/// [`Machine`]: crate::machine::Machine
#[derive(Debug, Default)]
pub(crate) struct PayloadPool {
    u32s: Classes<u32>,
    f64s: Classes<f64>,
}

impl PayloadPool {
    /// An empty buffer with room for at least `len` values of type `T`.
    pub fn alloc<T: Word>(&mut self, len: usize) -> Vec<T> {
        T::classes(self).alloc(len)
    }

    /// Returns a consumed payload's buffer to the pool. Inline payloads,
    /// shared buffers still held elsewhere and oversized or over-cap
    /// buffers are simply dropped. Inlined into the exchange's loop over
    /// every sent message, so the common inline and owned payloads cost no
    /// call.
    #[inline]
    pub fn recycle(&mut self, payload: Payload) {
        match payload {
            Payload::U32 { .. } | Payload::F64 { .. } => {}
            Payload::U32s(buf) => self.u32s.recycle(buf),
            Payload::F64s(buf) => self.f64s.recycle(buf),
            shared => self.recycle_shared(shared),
        }
    }

    /// [`PayloadPool::recycle`] for a shared buffer: it returns only when
    /// this was its last holder.
    #[inline(never)]
    fn recycle_shared(&mut self, payload: Payload) {
        match payload {
            Payload::SharedU32(buf) => {
                if let Ok(buf) = Arc::try_unwrap(buf) {
                    self.u32s.recycle(buf);
                }
            }
            Payload::SharedF64(buf) => {
                if let Ok(buf) = Arc::try_unwrap(buf) {
                    self.f64s.recycle(buf);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
impl PayloadPool {
    /// The capacities of the retained buffers: per value type, per class.
    pub(crate) fn census(&self) -> [Vec<Vec<usize>>; 2] {
        fn caps<T>(c: &Classes<T>) -> Vec<Vec<usize>> {
            c.classes
                .iter()
                .map(|class| class.iter().map(Vec::capacity).collect())
                .collect()
        }
        [caps(&self.u32s), caps(&self.f64s)]
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

    /// Consumes the message, yielding its payload for recycling.
    pub(crate) fn into_payload(self) -> Payload {
        self.payload
    }

    /// The payload's `u32` values, read in place.
    ///
    /// # Panics
    /// Panics if the payload holds `f64` values.
    #[inline]
    pub fn u32s(&self) -> &[u32] {
        match self.payload.slice() {
            Slice::U32(v) => v,
            Slice::F64([]) => &[],
            Slice::F64(_) => panic!("payload holds f64 values, not u32"),
        }
    }

    /// The payload's `f64` values, read in place.
    ///
    /// # Panics
    /// Panics if the payload holds `u32` values.
    #[inline]
    pub fn f64s(&self) -> &[f64] {
        match self.payload.slice() {
            Slice::F64(v) => v,
            Slice::U32([]) => &[],
            Slice::U32(_) => panic!("payload holds u32 values, not f64"),
        }
    }

    /// The first `u32` of the payload — convenient for single-word messages.
    ///
    /// # Panics
    /// Panics if the payload holds no `u32`.
    pub fn word_u32(&self) -> u32 {
        *self
            .u32s()
            .first()
            .expect("word_u32 requires a payload of at least one u32")
    }

    /// The first `f64` of the payload.
    ///
    /// # Panics
    /// Panics if the payload holds no `f64`.
    pub fn word_f64(&self) -> f64 {
        *self
            .f64s()
            .first()
            .expect("word_f64 requires a payload of at least one f64")
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    fn payload<'v, T: Word>(vals: impl Into<Values<'v, T>>, pool: &mut PayloadPool) -> Payload {
        T::payload(vals.into(), pool)
    }

    fn msg(payload: Payload) -> Message {
        Message {
            payload,
            ..Message::header(0, 1, MsgKind::Block, 1, 4)
        }
    }

    #[test]
    fn a_message_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<Message>(), 64);
        assert!(std::mem::size_of::<Payload>() <= 32);
    }

    #[test]
    fn inline_threshold_and_pool_round_trip() {
        let mut pool = PayloadPool::default();
        // 4 u32s = 16 bytes: exactly at the inline boundary.
        let p = payload(&[1u32, 2, 3, 4], &mut pool);
        assert!(matches!(p, Payload::U32 { len: 4, .. }));
        let p = payload(&[1.5f64, 2.5], &mut pool);
        assert!(matches!(p, Payload::F64 { len: 2, .. }));
        // 5 u32s = 20 bytes: spills to the heap via the pool.
        let p = payload(&[1u32, 2, 3, 4, 5], &mut pool);
        let Payload::U32s(ref buf) = p else {
            panic!("20-byte payload must be heap-backed");
        };
        let cap = buf.capacity();
        assert!(cap >= 8, "pool allocates whole 32-byte classes");
        // Recycle, then re-allocate: same buffer comes back, no growth.
        pool.recycle(p);
        let buf2 = pool.alloc::<u32>(5);
        assert_eq!(buf2.capacity(), cap);
        assert!(buf2.is_empty());
        // The f64 classes are separate: the u32 buffer is not handed out.
        assert!(pool.alloc::<f64>(3).capacity() >= 4);
    }

    #[test]
    fn classes_are_bounded_in_bytes() {
        let mut pool = PayloadPool::default();
        // The largest class holds 1 MiB: 262144 u32s, 131072 f64s.
        pool.recycle(Payload::U32s(Vec::with_capacity(MAX_POOLED_PAYLOAD / 4)));
        pool.recycle(Payload::F64s(Vec::with_capacity(MAX_POOLED_PAYLOAD / 8)));
        assert_eq!(pool.u32s.classes[POOL_CLASSES - 1].len(), 1);
        assert_eq!(pool.f64s.classes[POOL_CLASSES - 1].len(), 1);
        // One value past the bound is neither drawn from nor kept.
        pool.recycle(Payload::F64s(Vec::with_capacity(
            MAX_POOLED_PAYLOAD / 8 + 1,
        )));
        assert_eq!(pool.f64s.classes[POOL_CLASSES - 1].len(), 1);
        assert_eq!(
            pool.alloc::<f64>(MAX_POOLED_PAYLOAD / 8 + 1).capacity(),
            MAX_POOLED_PAYLOAD / 8 + 1
        );
    }

    #[test]
    fn pool_drops_oversized_buffers() {
        let mut pool = PayloadPool::default();
        pool.recycle(Payload::U32s(Vec::with_capacity(POOL_MAX_CLASS)));
        pool.recycle(Payload::U32s(Vec::with_capacity(2)));
        pool.recycle(Payload::empty());
        assert!(pool.u32s.classes.iter().all(Vec::is_empty));
        // Nothing retainable was added; a fresh alloc is still served.
        assert!(pool.alloc::<u32>(16).capacity() >= 16);
    }

    #[test]
    fn a_shared_buffer_returns_with_its_last_holder() {
        let mut pool = PayloadPool::default();
        let shared = Arc::new(vec![0.5f64; 64]);
        let a = payload(&shared, &mut pool);
        let b = payload(&shared, &mut pool);
        drop(shared);
        pool.recycle(a);
        assert!(pool.f64s.classes.is_empty(), "b still holds the buffer");
        pool.recycle(b);
        assert_eq!(pool.alloc::<f64>(64).capacity(), 64);
    }

    #[test]
    fn moved_and_shared_values_are_not_copied() {
        let mut pool = PayloadPool::default();
        let vals: Vec<u32> = (0..100).collect();
        let at = vals.as_ptr();
        let m = msg(payload(vals, &mut pool));
        assert_eq!(m.u32s().as_ptr(), at);
        let shared = Arc::new(vec![1.0f64; 3]);
        let m = msg(payload(&shared, &mut pool));
        assert_eq!(m.f64s().as_ptr(), shared.as_ptr());
        assert_eq!(m.word_f64(), 1.0);
    }

    #[test]
    fn u32_round_trip() {
        let mut pool = PayloadPool::default();
        let words: Vec<u32> = (0..37).map(|i| i * 0x0101_0101).collect();
        // Copied (inline and pooled), moved and shared.
        for (vals, p) in [
            (&words[..3], payload(&words[..3], &mut pool)),
            (&words[..], payload(&words, &mut pool)),
            (&words[..], payload(words.clone(), &mut pool)),
            (&words[..], payload(&Arc::new(words.clone()), &mut pool)),
        ] {
            let m = msg(p);
            assert_eq!(m.u32s(), vals);
            assert_eq!(m.word_u32(), 0);
        }
        // An empty payload reads as empty in either type.
        let m = msg(Payload::empty());
        assert!(m.u32s().is_empty() && m.f64s().is_empty());
    }

    #[test]
    fn f64_round_trip() {
        let mut pool = PayloadPool::default();
        let reals = [1.5f64, -0.25, f64::MAX, 1e300, -0.0];
        for (vals, p) in [
            (&reals[..2], payload(&reals[..2], &mut pool)),
            (&reals[..], payload(&reals, &mut pool)),
            (&reals[..], payload(reals.to_vec(), &mut pool)),
            (&reals[..], payload(&Arc::new(reals.to_vec()), &mut pool)),
        ] {
            let m = msg(p);
            assert_eq!(m.f64s(), vals);
            assert_eq!(m.word_f64(), 1.5);
        }
    }

    #[test]
    fn decoders_read_back_the_pooled_encoders() {
        let mut pool = PayloadPool::default();
        // Copied heap payloads of each type come from the pool's classes,
        // plus one inline; the accessors read each back unchanged.
        let words: Vec<u32> = (0..37).map(|i| i * 0x0101_0101).collect();
        let m = msg(payload(&words, &mut pool));
        assert!(matches!(m.payload, Payload::U32s(ref b) if b.capacity() == 64));
        assert_eq!(m.u32s(), &words[..]);
        let reals = [0.5f64, -3.0, 1e300];
        let m = msg(payload(&reals, &mut pool));
        assert!(matches!(m.payload, Payload::F64s(ref b) if b.capacity() == 4));
        assert_eq!(m.f64s(), reals);
        let m = msg(payload(&[9u32, 8], &mut pool));
        assert!(matches!(m.payload, Payload::U32 { len: 2, .. }));
        assert_eq!(m.u32s(), [9, 8]);
        // A recycled buffer is encoded into again and reads back the new values.
        let m = msg(payload(&words, &mut pool));
        let at = m.u32s().as_ptr();
        pool.recycle(m.into_payload());
        let rev: Vec<u32> = words.iter().rev().copied().collect();
        let m = msg(payload(&rev, &mut pool));
        assert_eq!(m.u32s().as_ptr(), at);
        assert_eq!(m.u32s(), &rev[..]);
    }

    #[test]
    fn equality_is_bitwise_and_ignores_the_representation() {
        let mut pool = PayloadPool::default();
        let nan = [f64::NAN, 1.0, 2.0];
        let copied = payload(&nan, &mut pool);
        let moved = payload(nan.to_vec(), &mut pool);
        let shared = payload(&Arc::new(nan.to_vec()), &mut pool);
        assert_eq!(copied, moved, "NaN payloads compare by their bits");
        assert_eq!(moved, shared);
        let zero = payload(&[0.0f64, 1.0, 2.0], &mut pool);
        let neg_zero = payload(&[-0.0f64, 1.0, 2.0], &mut pool);
        assert_ne!(zero, neg_zero);
        let u = payload(&[0u32, 0], &mut pool);
        let f = payload(&[0.0f64], &mut pool);
        assert_ne!(u, f, "values of different types differ");
        let empty_f = f64::payload(Values::Copied(&[]), &mut pool);
        assert_eq!(Payload::empty(), empty_f);
    }

    #[test]
    #[should_panic(expected = "f64 values, not u32")]
    fn reading_the_wrong_type_panics() {
        let m = msg(payload(&[1.0f64], &mut PayloadPool::default()));
        let _ = m.u32s();
    }
}
