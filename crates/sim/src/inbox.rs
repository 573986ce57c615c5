//! Delivery by index.
//!
//! A superstep's messages never move: after the exchange they stay in
//! their senders' outboxes, which become the pattern's per-source send
//! lists, and each receiver reads them through a per-destination list of
//! `(src, position)` slots. `DeliveryIndex::rebuild` builds those lists
//! with one counting sort over the send lists; walking sources in pid
//! order and each outbox in send order makes every receiver's slice
//! ordered by source id and then by send order, the delivery order the
//! simulator promises. A slot costs 8 bytes; the 64-byte message itself
//! is never copied.

use std::ops::Index;

use crate::message::Message;

/// Where one delivered message sits: `lists[src][pos]`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Slot {
    src: u32,
    pos: u32,
}

/// Per-destination slot lists over the delivered send lists, rebuilt in
/// place each superstep so the steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct DeliveryIndex {
    /// `slots[start[d]..start[d + 1]]` are destination `d`'s messages.
    start: Vec<u32>,
    slots: Vec<Slot>,
}

impl DeliveryIndex {
    /// An index for `p` processors with every inbox empty.
    pub fn new(p: usize) -> Self {
        DeliveryIndex {
            start: vec![0; p + 1],
            slots: Vec::new(),
        }
    }

    /// Indexes `lists` (one send list per source, `lists.len() == p`) by
    /// destination.
    #[allow(clippy::cast_possible_truncation)] // p and positions < 4 Gi
    pub fn rebuild(&mut self, lists: &[Vec<Message>]) {
        let start = &mut self.start;
        start.fill(0);
        for msg in lists.iter().flatten() {
            start[msg.dst] += 1;
        }
        // Inclusive prefix sums: `start[d]` is the end of `d`'s range.
        let mut acc = 0u32;
        for s in start.iter_mut() {
            acc += *s;
            *s = acc;
        }
        // Fill backwards so each decrement leaves `start[d]` at the
        // beginning of `d`'s range, and the order stays (src, send-order).
        self.slots.clear();
        self.slots.resize(acc as usize, Slot::default());
        for (src, list) in lists.iter().enumerate().rev() {
            for (pos, msg) in list.iter().enumerate().rev() {
                let at = &mut start[msg.dst];
                *at -= 1;
                self.slots[*at as usize] = Slot {
                    src: src as u32,
                    pos: pos as u32,
                };
            }
        }
    }

    /// Number of processors indexed.
    pub fn nprocs(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of messages delivered to `pid`.
    pub fn len_of(&self, pid: usize) -> usize {
        (self.start[pid + 1] - self.start[pid]) as usize
    }

    /// `pid`'s delivered messages as a view over `lists`.
    pub fn inbox<'a>(&'a self, lists: &'a [Vec<Message>], pid: usize) -> Inbox<'a> {
        let range = self.start[pid] as usize..self.start[pid + 1] as usize;
        Inbox {
            lists,
            slots: &self.slots[range],
        }
    }
}

/// The messages delivered to one processor at the previous barrier,
/// ordered by source id and then by send order: a `Copy` view that reads
/// each message in place in its sender's outbox.
#[derive(Clone, Copy)]
pub struct Inbox<'a> {
    lists: &'a [Vec<Message>],
    slots: &'a [Slot],
}

impl<'a> Inbox<'a> {
    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The first delivered message, if any.
    pub fn first(&self) -> Option<&'a Message> {
        self.slots.first().map(|&s| self.at(s))
    }

    /// The delivered messages in delivery order.
    pub fn iter(&self) -> InboxIter<'a> {
        InboxIter {
            lists: self.lists,
            slots: self.slots.iter(),
        }
    }

    #[inline]
    fn at(&self, s: Slot) -> &'a Message {
        &self.lists[s.src as usize][s.pos as usize]
    }
}

impl std::fmt::Debug for Inbox<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Index<usize> for Inbox<'_> {
    type Output = Message;

    fn index(&self, i: usize) -> &Message {
        self.at(self.slots[i])
    }
}

impl<'a> IntoIterator for Inbox<'a> {
    type Item = &'a Message;
    type IntoIter = InboxIter<'a>;

    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], in delivery order.
#[derive(Clone)]
pub struct InboxIter<'a> {
    lists: &'a [Vec<Message>],
    slots: std::slice::Iter<'a, Slot>,
}

impl<'a> Iterator for InboxIter<'a> {
    type Item = &'a Message;

    #[inline]
    fn next(&mut self) -> Option<&'a Message> {
        let s = self.slots.next()?;
        Some(&self.lists[s.src as usize][s.pos as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for InboxIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;

    /// Send lists from per-source destination lists; each message's
    /// logical word count is its 1-based send position, to tell it apart.
    fn lists(sends: &[&[usize]]) -> Vec<Vec<Message>> {
        sends
            .iter()
            .enumerate()
            .map(|(src, dsts)| {
                dsts.iter()
                    .enumerate()
                    .map(|(i, &dst)| Message::header(src, dst, MsgKind::Words, i + 1, 4))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rebuild_orders_each_inbox_by_source_then_send_order() {
        let lists = lists(&[&[2, 0, 2], &[], &[2, 1], &[0]]);
        let mut index = DeliveryIndex::new(4);
        index.rebuild(&lists);
        let seen = |pid| -> Vec<(usize, u32)> {
            let inbox = index.inbox(&lists, pid);
            inbox.iter().map(|m| (m.src, m.logical_words)).collect()
        };
        assert_eq!(seen(0), [(0, 2), (3, 1)]);
        assert_eq!(seen(1), [(2, 2)]);
        assert_eq!(seen(2), [(0, 1), (0, 3), (2, 1)]);
        assert!(index.inbox(&lists, 3).is_empty());
        assert_eq!((0..4).map(|d| index.len_of(d)).sum::<usize>(), 6);
        let inbox = index.inbox(&lists, 2);
        assert_eq!(inbox.len(), 3);
        assert_eq!(inbox[2].src, 2);
        assert_eq!(inbox.first().map(|m| m.logical_words), Some(1));
        assert_eq!(inbox.iter().len(), 3);
    }

    #[test]
    fn a_fresh_index_delivers_nothing() {
        let index = DeliveryIndex::new(3);
        let lists = vec![Vec::new(); 3];
        assert!((0..3).all(|pid| index.inbox(&lists, pid).is_empty()));
    }
}
