//! Per-processor execution context for one superstep.

use std::cell::{Cell, RefCell};

use rand::rngs::StdRng;

use crate::compute::ComputeModel;
use crate::inbox::Inbox;
use crate::message::{Message, MsgKind, Payload, PayloadPool, ProcId, Values, Word};
use crate::shadow::{ConsumeFilter, RegionId, ShadowEvent};

/// Per-processor scratch owned by the [`crate::machine::Machine`] and
/// *lent* to a fresh [`Ctx`] each superstep, so the hot path reuses the
/// same outbox/event buffers (and payload arena) instead of reallocating
/// them every step. No message is copied into an inbox: a processor reads
/// its delivered messages in place in their senders' previous outboxes
/// (see [`crate::inbox`]).
#[derive(Default)]
pub(crate) struct ProcAux {
    /// Messages sent this superstep, in program order. The exchange swaps
    /// it with the send list the machine's pattern holds, so the two
    /// buffers alternate and keep their capacity.
    pub outbox: Vec<Message>,
    /// Recyclable heap payload buffers for this processor's sends.
    pub pool: PayloadPool,
    /// Shadow events, in program order (empty unless a schedule
    /// observer is installed).
    pub events: Vec<ShadowEvent>,
    /// Destinations `>= p` whose messages were recorded and dropped.
    pub oob_sends: Vec<usize>,
    /// Compute time charged this superstep, in µs.
    pub compute_us: f64,
    /// `false` if any charge was NaN, infinite or negative.
    pub charge_ok: bool,
    /// Whether the processor read its inbox this superstep.
    pub read_inbox: bool,
    /// Schedule snapshot: messages delivered to this processor for this
    /// superstep, taken before the exchange re-indexes delivery.
    pub inbox_seen: usize,
}

/// The scalar outcome of one processor's superstep, as returned by
/// [`Ctx::finish`]; the bulky products (outbox, events, oob list) are
/// written directly into the borrowed [`ProcAux`].
#[derive(Clone, Copy)]
pub(crate) struct ProcOutcome {
    pub compute_us: f64,
    /// `false` if any charge was NaN, infinite or negative.
    pub charge_ok: bool,
    /// Whether the processor read its inbox this superstep.
    pub read_inbox: bool,
}

/// The view a virtual processor has during one superstep: its id, its
/// private state, the messages delivered at the previous barrier, and the
/// ability to charge local computation time and enqueue sends.
///
/// Send order is semantically meaningful: it defines the communication
/// rounds the network model prices (staggered vs. naive schedules).
pub struct Ctx<'a, S> {
    pid: ProcId,
    p: usize,
    /// The processor's private state.
    pub state: &'a mut S,
    inbox: Inbox<'a>,
    /// This processor's sends of the last superstep, where the receivers
    /// read them.
    sent: &'a [Message],
    compute: &'a dyn ComputeModel,
    word: usize,
    outbox: &'a mut Vec<Message>,
    pool: &'a mut PayloadPool,
    compute_us: f64,
    charge_ok: bool,
    read_inbox: Cell<bool>,
    oob_sends: &'a mut Vec<usize>,
    /// `true` when a schedule observer watches this run: shadow events
    /// are recorded and fail-fast asserts soften into recorded findings.
    shadow: bool,
    /// Shadow-event stream for the happens-before analyzer; only populated
    /// under `shadow`. Interior mutability because the `msgs*` accessors
    /// take `&self`.
    events: RefCell<&'a mut Vec<ShadowEvent>>,
    /// Deterministic per-processor-per-superstep rng, constructed lazily
    /// from `rng_seed` on first use: most supersteps never draw from it,
    /// and the (ChaCha) key setup is a measurable per-processor cost.
    /// Boxed so the rarely-used ~300-byte generator state doesn't bloat
    /// the `Ctx` the hot loop builds for every processor.
    rng: Option<Box<StdRng>>,
    rng_seed: u64,
}

impl<'a, S> Ctx<'a, S> {
    #[allow(clippy::too_many_arguments)] // crate-private, one call site
    pub(crate) fn new(
        pid: ProcId,
        p: usize,
        state: &'a mut S,
        inbox: Inbox<'a>,
        sent: &'a [Message],
        aux: &'a mut ProcAux,
        compute: &'a dyn ComputeModel,
        word: usize,
        rng_seed: u64,
        shadow: bool,
    ) -> Self {
        aux.outbox.clear();
        aux.events.clear();
        aux.oob_sends.clear();
        let ProcAux {
            outbox,
            pool,
            events,
            oob_sends,
            ..
        } = aux;
        Ctx {
            pid,
            p,
            state,
            inbox,
            sent,
            compute,
            word,
            outbox,
            pool,
            compute_us: 0.0,
            charge_ok: true,
            read_inbox: Cell::new(false),
            oob_sends,
            shadow,
            events: RefCell::new(events),
            rng: None,
            rng_seed,
        }
    }

    /// This processor's id in `0..p`.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Total number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The platform's compute model (for `alpha`, cache curves, ...).
    pub fn compute(&self) -> &dyn ComputeModel {
        self.compute
    }

    /// Deterministic per-processor-per-superstep RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        use rand::SeedableRng;
        let seed = self.rng_seed;
        self.rng
            .get_or_insert_with(|| Box::new(StdRng::seed_from_u64(seed)))
    }

    // ---- local computation accounting -----------------------------------

    /// Accumulates a charge, recording (rather than panicking on) invalid
    /// amounts so the protocol checker can flag them (rule R05).
    fn add_charge(&mut self, us: f64) {
        if !us.is_finite() || us < 0.0 {
            self.charge_ok = false;
        }
        self.compute_us += us;
    }

    /// Charges `us` microseconds of local computation.
    pub fn charge(&mut self, us: f64) {
        self.add_charge(us);
    }

    /// Charges `n` compound (multiply + add) operations at the platform's
    /// nominal `alpha`.
    pub fn charge_ops(&mut self, n: u64) {
        self.add_charge(n as f64 * self.compute.alpha());
    }

    /// Charges a local `m x k · k x n` matrix multiplication through the
    /// platform's (possibly cache-sensitive) kernel model.
    pub fn charge_matmul(&mut self, m: usize, n: usize, k: usize) {
        let ops = (m as f64) * (n as f64) * (k as f64);
        self.add_charge(ops * self.compute.matmul_op_time(m, n, k));
    }

    /// Charges `n` words of pure data movement (the `beta` term).
    pub fn charge_copy_words(&mut self, n: u64) {
        self.add_charge(n as f64 * self.compute.copy_word_time());
    }

    /// Charges a local radix sort of `n` keys of `key_bits` bits using
    /// `radix_bits`-bit digits.
    pub fn charge_radix_sort(&mut self, n: usize, key_bits: usize, radix_bits: usize) {
        self.add_charge(self.compute.radix_sort_time(n, key_bits, radix_bits));
    }

    /// Charges an `n`-element linear merge.
    pub fn charge_merge(&mut self, n: u64) {
        self.add_charge(n as f64 * self.compute.merge_word_time());
    }

    /// Local computation charged so far in this superstep, in µs.
    pub fn charged(&self) -> f64 {
        self.compute_us
    }

    // ---- shadow instrumentation -----------------------------------------

    /// Records a shadow event if a schedule observer watches this run;
    /// free otherwise.
    fn record(&self, event: ShadowEvent) {
        if self.shadow {
            self.events.borrow_mut().push(event);
        }
    }

    /// Records a consume of the inbox through `filter`, summarizing what
    /// the filter matched. Computed eagerly at accessor-call time so the
    /// analyzer sees the consume even if the returned iterator is dropped.
    fn record_consume(&self, filter: ConsumeFilter) {
        if !self.shadow {
            return;
        }
        let mut matched = 0usize;
        // Distinct tags, kept sorted so membership is a binary search
        // rather than an O(tags²) linear scan over many-tag inboxes.
        let mut tags: Vec<u32> = Vec::new();
        for m in self.inbox {
            let hit = match filter {
                ConsumeFilter::Any => true,
                ConsumeFilter::Tag(t) => m.tag == t,
                ConsumeFilter::From(s) => m.src == s,
            };
            if hit {
                matched += 1;
                if let Err(at) = tags.binary_search(&m.tag) {
                    tags.insert(at, m.tag);
                }
            }
        }
        self.events.borrow_mut().push(ShadowEvent::Consume {
            filter,
            matched,
            distinct_tags: tags.len(),
        });
    }

    /// Declares that the processor read private region `region` this
    /// superstep. A no-op unless a schedule observer is installed; the
    /// happens-before analyzer (`pcm-race`) uses these to track dataflow
    /// through local state.
    pub fn touch_read(&self, region: RegionId) {
        self.record(ShadowEvent::Read { region });
    }

    /// Declares that the processor overwrote private region `region`
    /// (discarding its previous contents) this superstep.
    pub fn touch_write(&self, region: RegionId) {
        self.record(ShadowEvent::Write { region });
    }

    /// Declares a read-modify-write of region `region` (append,
    /// accumulate): the previous contents are consumed, not discarded.
    pub fn touch_modify(&self, region: RegionId) {
        self.record(ShadowEvent::Modify { region });
    }

    // ---- receiving -------------------------------------------------------

    /// Messages delivered at the previous barrier, ordered by source id and
    /// then by send order: a `Copy` view with `len`, `iter`, `first` and
    /// indexing, reading each message in place in its sender's outbox.
    ///
    /// The inbox borrow outlives `&self`: it lives as long as the context
    /// (`'a`), so a closure may write `ctx.state` or send while it walks
    /// the messages. The consume is recorded when this is called, not as
    /// the messages are read.
    pub fn msgs(&self) -> Inbox<'a> {
        self.read_inbox.set(true);
        self.record_consume(ConsumeFilter::Any);
        self.inbox
    }

    /// Messages from a particular source. Like [`Ctx::msgs`], the
    /// iterator borrows the inbox for `'a`, not `self`.
    pub fn msgs_from(&self, src: ProcId) -> impl Iterator<Item = &'a Message> {
        self.read_inbox.set(true);
        self.record_consume(ConsumeFilter::From(src));
        self.inbox.iter().filter(move |m| m.src == src)
    }

    /// Messages carrying a particular tag. Like [`Ctx::msgs`], the
    /// iterator borrows the inbox for `'a`, not `self`.
    pub fn msgs_tagged(&self, tag: u32) -> impl Iterator<Item = &'a Message> {
        self.read_inbox.set(true);
        self.record_consume(ConsumeFilter::Tag(tag));
        self.inbox.iter().filter(move |m| m.tag == tag)
    }

    /// This processor's own sends of the last superstep, in send order,
    /// read in place where their receivers read them (sends that were
    /// dropped — empty or out of range — are not among them). A list
    /// moved into a send is still readable here for one more superstep,
    /// so an algorithm can send its data and keep using it without a
    /// copy. Like [`Ctx::msgs`], the slice borrows for `'a`.
    pub fn sent(&self) -> &'a [Message] {
        self.sent
    }

    /// An empty buffer with room for at least `capacity` `u32`s, drawn
    /// from this processor's payload pool: when one fits, a buffer that
    /// an earlier send carried and the exchange recycled. Filling it and
    /// moving it into a send returns it to the pool a superstep later.
    pub fn buffer_u32(&mut self, capacity: usize) -> Vec<u32> {
        self.pool.alloc(capacity)
    }

    /// The `f64` counterpart of [`Ctx::buffer_u32`].
    pub fn buffer_f64(&mut self, capacity: usize) -> Vec<f64> {
        self.pool.alloc(capacity)
    }

    // ---- sending ---------------------------------------------------------

    /// Queues one message of `logical_words` words, unless it is dropped:
    /// an out-of-range destination is recorded, and an empty message is
    /// not sent. A dropped payload returns to the pool.
    fn push(
        &mut self,
        dst: ProcId,
        tag: u32,
        kind: MsgKind,
        logical_words: usize,
        logical_bytes: usize,
        payload: Payload,
    ) {
        if dst >= self.p {
            // Record and drop: the protocol checker reports this as rule
            // R01; delivering it would corrupt another processor's inbox
            // indexing. Debug runs without a schedule observer still fail
            // fast.
            debug_assert!(
                self.shadow,
                "destination {dst} out of range for {} processors",
                self.p
            );
            self.oob_sends.push(dst);
            self.pool.recycle(payload);
            return;
        }
        if logical_words == 0 {
            self.pool.recycle(payload);
            return;
        }
        self.enqueue(dst, tag, kind, logical_words, logical_bytes, payload);
    }

    /// Appends a deliverable message (in range, at least one word) to the
    /// outbox: the one place a sent `Message` is built.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // single-message sizes < 4 Gi words
    fn enqueue(
        &mut self,
        dst: ProcId,
        tag: u32,
        kind: MsgKind,
        logical_words: usize,
        logical_bytes: usize,
        payload: Payload,
    ) {
        self.outbox.push(Message {
            src: self.pid,
            dst,
            tag,
            kind,
            logical_words: logical_words as u32,
            logical_bytes: logical_bytes as u32,
            payload,
        });
    }

    /// Sends `vals.len()` individual word messages carrying `u32` values.
    /// Like every send, it copies a slice, moves an owned `Vec` and shares
    /// an `Arc`'d buffer (see [`Values`]).
    #[inline]
    pub fn send_words_u32<'v>(&mut self, dst: ProcId, vals: impl Into<Values<'v, u32>>) {
        self.send_words_u32_tagged(dst, 0, vals);
    }

    /// Tagged variant of [`Ctx::send_words_u32`].
    #[inline]
    pub fn send_words_u32_tagged<'v>(
        &mut self,
        dst: ProcId,
        tag: u32,
        vals: impl Into<Values<'v, u32>>,
    ) {
        self.send(dst, tag, MsgKind::Words, vals.into());
    }

    /// Sends `vals.len()` individual word messages carrying `f64` values,
    /// with a tag. (Each value counts as one *logical* word of the
    /// platform's size.)
    #[inline]
    pub fn send_words_f64_tagged<'v>(
        &mut self,
        dst: ProcId,
        tag: u32,
        vals: impl Into<Values<'v, f64>>,
    ) {
        self.send(dst, tag, MsgKind::Words, vals.into());
    }

    /// Sends one word message carrying a `u32`.
    #[inline]
    pub fn send_word_u32(&mut self, dst: ProcId, val: u32) {
        self.send_words_u32(dst, &[val]);
    }

    /// Sends one block message of `u32` values.
    #[inline]
    pub fn send_block_u32<'v>(&mut self, dst: ProcId, vals: impl Into<Values<'v, u32>>) {
        self.send_block_u32_tagged(dst, 0, vals);
    }

    /// Tagged variant of [`Ctx::send_block_u32`].
    #[inline]
    pub fn send_block_u32_tagged<'v>(
        &mut self,
        dst: ProcId,
        tag: u32,
        vals: impl Into<Values<'v, u32>>,
    ) {
        self.send(dst, tag, MsgKind::Block, vals.into());
    }

    /// Sends one block message of `f64` values.
    #[inline]
    pub fn send_block_f64<'v>(&mut self, dst: ProcId, vals: impl Into<Values<'v, f64>>) {
        self.send_block_f64_tagged(dst, 0, vals);
    }

    /// Tagged variant of [`Ctx::send_block_f64`].
    #[inline]
    pub fn send_block_f64_tagged<'v>(
        &mut self,
        dst: ProcId,
        tag: u32,
        vals: impl Into<Values<'v, f64>>,
    ) {
        self.send(dst, tag, MsgKind::Block, vals.into());
    }

    /// Sends `vals` grouped into fixed-size *packets* of `packet_bytes`
    /// each: every packet is one network message (one communication round)
    /// carrying several machine words — the "fixed size short messages,
    /// but larger than one computational word" of the paper's Section 8.
    ///
    /// # Panics
    /// Panics unless `packet_bytes` is a positive multiple of the machine
    /// word size.
    pub fn send_packets_u32<'v>(
        &mut self,
        dst: ProcId,
        vals: impl Into<Values<'v, u32>>,
        packet_bytes: usize,
    ) {
        assert!(
            packet_bytes > 0 && packet_bytes.is_multiple_of(self.word),
            "packet size must be a positive multiple of the word size"
        );
        let vals = vals.into();
        if vals.is_empty() {
            return;
        }
        let payload_bytes = vals.len() * self.word;
        let packets = payload_bytes.div_ceil(packet_bytes);
        let payload = u32::payload(vals, self.pool);
        self.push(dst, 0, MsgKind::Words, packets, payload_bytes, payload);
    }

    /// Sends one xnet (neighbour-grid) block of `f64` values, with a tag.
    /// Only the MasPar prices these specially; other machines treat them
    /// as blocks.
    #[inline]
    pub fn send_xnet_f64_tagged<'v>(
        &mut self,
        dst: ProcId,
        tag: u32,
        vals: impl Into<Values<'v, f64>>,
    ) {
        self.send(dst, tag, MsgKind::Xnet, vals.into());
    }

    /// Sends one xnet block of `u32` values.
    #[inline]
    pub fn send_xnet_u32<'v>(&mut self, dst: ProcId, vals: impl Into<Values<'v, u32>>) {
        self.send(dst, 0, MsgKind::Xnet, vals.into());
    }

    /// Sends one message of `vals.len()` logical words. The common send,
    /// a copy of one to [`Word::INLINE`] values to a processor in range,
    /// is built in place in the caller; every other send takes
    /// [`Ctx::send_general`].
    #[inline(always)]
    fn send<T: Word>(&mut self, dst: ProcId, tag: u32, kind: MsgKind, vals: Values<'_, T>) {
        match vals {
            Values::Copied(v) if (1..=T::INLINE).contains(&v.len()) && dst < self.p => {
                let words = v.len();
                self.enqueue(dst, tag, kind, words, words * self.word, T::inline(v));
            }
            vals => self.send_general(dst, tag, kind, vals),
        }
    }

    /// Every send [`Ctx::send`] does not build in place: copies too long
    /// to inline (into a pool buffer), moved and shared values, and empty
    /// and out-of-range sends, which [`Ctx::push`] drops. Kept out of line
    /// so the hot callers stay small.
    #[cold]
    #[inline(never)]
    fn send_general<T: Word>(&mut self, dst: ProcId, tag: u32, kind: MsgKind, vals: Values<'_, T>) {
        let words = vals.len();
        let payload = T::payload(vals, self.pool);
        self.push(dst, tag, kind, words, words * self.word, payload);
    }

    pub(crate) fn finish(self) -> ProcOutcome {
        ProcOutcome {
            compute_us: self.compute_us,
            charge_ok: self.charge_ok && self.compute_us.is_finite(),
            read_inbox: self.read_inbox.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::inbox::DeliveryIndex;

    /// What one send leaves behind on processor 1 of 4 whose pool holds a
    /// recycled buffer of each type: the outbox (`Debug` shows each
    /// payload's representation), the out-of-range list and the pool.
    fn after_send(
        send: impl FnOnce(&mut Ctx<'_, ()>),
    ) -> (String, Vec<usize>, [Vec<Vec<usize>>; 2]) {
        let p = 4;
        let compute = UniformCompute::test_model();
        let index = DeliveryIndex::new(p);
        let lists = vec![Vec::new(); p];
        let mut aux = ProcAux::default();
        aux.pool.recycle(Payload::U32s(Vec::with_capacity(8)));
        aux.pool.recycle(Payload::F64s(Vec::with_capacity(4)));
        let mut state = ();
        let word = compute.word_bytes();
        // A schedule observer's context: an out-of-range send is recorded
        // instead of failing a debug assertion.
        let mut ctx = Ctx::new(
            1,
            p,
            &mut state,
            index.inbox(&lists, 1),
            &[],
            &mut aux,
            &compute,
            word,
            0,
            true,
        );
        send(&mut ctx);
        ctx.finish();
        (
            format!("{:?}", aux.outbox),
            aux.oob_sends.clone(),
            aux.pool.census(),
        )
    }

    /// Sends `vals` both ways to in-range and out-of-range destinations,
    /// as every kind.
    fn check_arms<T: Word>(vals: &[T]) {
        for dst in [0, 1, 3, 4, 9] {
            for kind in [MsgKind::Words, MsgKind::Block, MsgKind::Xnet] {
                let inline = after_send(|ctx| ctx.send(dst, 5, kind, Values::Copied(vals)));
                let general =
                    after_send(|ctx| ctx.send_general(dst, 5, kind, Values::Copied(vals)));
                assert_eq!(
                    inline,
                    general,
                    "{} values to {dst} as {kind:?}",
                    vals.len()
                );
            }
        }
    }

    /// [`Ctx::send`]'s in-place arm leaves the outbox, the out-of-range
    /// list and the pool exactly as the general arm does, for every copy
    /// of 0 to `INLINE + 1` values of either type.
    #[test]
    fn the_inline_send_arm_matches_the_general_arm() {
        let words: Vec<u32> = (1..).step_by(7).take(<u32 as Word>::INLINE + 1).collect();
        for n in 0..=words.len() {
            check_arms(&words[..n]);
        }
        let reals: Vec<f64> = (0..=<f64 as Word>::INLINE)
            .map(|v| v as f64 - 0.5)
            .collect();
        for n in 0..=reals.len() {
            check_arms(&reals[..n]);
        }
    }
}
