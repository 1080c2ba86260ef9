//! The arena-backed event core: packed event records in a slab with an
//! index-based priority queue — the engine's only event queue.
//!
//! The engine's original event queue was a
//! `BinaryHeap<Reverse<(Time, u64, Event)>>`: every push moved a 40-plus
//! byte enum through the heap's sift path, and popped events were dropped
//! on the floor. The arena queue replaces that with:
//!
//! * a **slab** of packed 32-byte [`EventRecord`]s addressed by `u32`
//!   handles, with an intrusive freelist so a popped event's slot is
//!   recycled by a later push (the next-free handle is stored in the dead
//!   record's `a` field — no side allocation),
//! * an **index heap** (`Vec<u32>` of handles) ordered by the same
//!   `(time, seq)` key the original heap used. `seq` is unique per push,
//!   so the key is a strict total order and *any* correct priority queue
//!   pops the identical stream — which makes every downstream RNG draw,
//!   emitted event, and report bit-identical by construction. The golden
//!   fixtures and the `BinaryHeap`-oracle property test pin this.
//!
//! Handle/freelist invariants:
//!
//! * a handle is either *live* (reachable from exactly one `heap` entry)
//!   or *free* (reachable from exactly one freelist link, starting at
//!   `free_head`); never both, never neither,
//! * `heap.len() + free_len == slab.len()` at every quiescent point,
//! * the slab never shrinks: its high-water mark is the maximum number of
//!   simultaneously pending events, not the event total (~2 per task
//!   attempt over a run, but only ~queries + in-flight tasks at once).

use std::cmp::Ordering;

use super::checkpoint::{CheckpointError, Reader, Writer};
use super::state::Event;
use crate::job::TaskKind;

/// One queued event, packed to 32 bytes. `a`/`b`/`c` carry the event's
/// payload fields (see [`EventRecord::encode`]); `tag` selects the
/// variant and `kind` carries a [`TaskKind`] discriminant for `Retry`.
/// When the record is on the freelist, `a` holds the next free handle.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct EventRecord {
    time: f64,
    seq: u64,
    a: u32,
    b: u32,
    c: u32,
    tag: u8,
    kind: u8,
    _pad: [u8; 2],
}

const TAG_ARRIVAL: u8 = 0;
const TAG_SUBMIT: u8 = 1;
const TAG_TASK_DONE: u8 = 2;
const TAG_TASK_FAILED: u8 = 3;
const TAG_RETRY: u8 = 4;
const TAG_NODE_DOWN: u8 = 5;
const TAG_NODE_UP: u8 = 6;
const TAG_DEADLINE_CHECK: u8 = 7;
const TAG_RESUBMIT: u8 = 8;
/// Tag of a record sitting on the freelist (debug-only tripwire).
const TAG_FREE: u8 = 0xFF;

/// Freelist terminator / "no handle" sentinel (also used by the attempt
/// table's `partner` column).
pub(super) const NIL: u32 = u32::MAX;

#[inline]
fn narrow(x: usize) -> u32 {
    debug_assert!(x < NIL as usize, "event field {x} exceeds u32 handle space");
    x as u32
}

impl EventRecord {
    fn encode(time: f64, seq: u64, event: &Event) -> Self {
        let (tag, a, b, c, kind) = match *event {
            Event::Arrival { q } => (TAG_ARRIVAL, narrow(q), 0, 0, 0),
            Event::Submit { q, j } => (TAG_SUBMIT, narrow(q), narrow(j), 0, 0),
            Event::TaskDone { attempt } => (TAG_TASK_DONE, narrow(attempt), 0, 0, 0),
            Event::TaskFailed { attempt } => (TAG_TASK_FAILED, narrow(attempt), 0, 0, 0),
            Event::Retry { q, j, kind, spec_idx } => {
                let k = match kind {
                    TaskKind::Map => 0,
                    TaskKind::Reduce => 1,
                };
                (TAG_RETRY, narrow(q), narrow(j), narrow(spec_idx), k)
            }
            Event::NodeDown { crash } => (TAG_NODE_DOWN, narrow(crash), 0, 0, 0),
            // The 64-bit crash epoch rides in the two spare u32 lanes.
            Event::NodeUp { node, epoch } => {
                (TAG_NODE_UP, narrow(node), epoch as u32, (epoch >> 32) as u32, 0)
            }
            Event::DeadlineCheck { q } => (TAG_DEADLINE_CHECK, narrow(q), 0, 0, 0),
            Event::Resubmit { q } => (TAG_RESUBMIT, narrow(q), 0, 0, 0),
        };
        Self { time, seq, a, b, c, tag, kind, _pad: [0; 2] }
    }

    fn decode(&self) -> Event {
        let (a, b, c) = (self.a as usize, self.b as usize, self.c as usize);
        match self.tag {
            TAG_ARRIVAL => Event::Arrival { q: a },
            TAG_SUBMIT => Event::Submit { q: a, j: b },
            TAG_TASK_DONE => Event::TaskDone { attempt: a },
            TAG_TASK_FAILED => Event::TaskFailed { attempt: a },
            TAG_RETRY => Event::Retry {
                q: a,
                j: b,
                kind: if self.kind == 0 { TaskKind::Map } else { TaskKind::Reduce },
                spec_idx: c,
            },
            TAG_NODE_DOWN => Event::NodeDown { crash: a },
            TAG_NODE_UP => {
                Event::NodeUp { node: a, epoch: u64::from(self.b) | (u64::from(self.c) << 32) }
            }
            TAG_DEADLINE_CHECK => Event::DeadlineCheck { q: a },
            TAG_RESUBMIT => Event::Resubmit { q: a },
            tag => unreachable!("decoding a non-live event record (tag {tag})"),
        }
    }
}

/// Deterministic queue telemetry surfaced through the profiler at the end
/// of a run (every field is a pure function of the workload, never of
/// wall-clock or capacity growth policy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct QueueStats {
    /// Pushes + pops over the run.
    pub(super) ops: u64,
    /// Peak bytes of live queue state: slab records + index-heap entries
    /// (by element count, not reserved capacity, so the number is
    /// bit-reproducible across allocator behaviors).
    pub(super) bytes_peak: u64,
    /// Pushes served by recycling a freed slab slot instead of growing
    /// the slab.
    pub(super) recycled: u64,
}

/// The arena queue: slab + freelist + index min-heap over `(time, seq)`.
pub(super) struct ArenaQueue {
    /// The next sequence number to assign: one unique number per push.
    seq: u64,
    slab: Vec<EventRecord>,
    /// Head of the intrusive freelist threaded through dead records'
    /// `a` fields ([`NIL`] = empty).
    free_head: u32,
    /// Binary min-heap of live handles, ordered by the records'
    /// `(time, seq)` — `seq` unique makes the order strict.
    heap: Vec<u32>,
    stats: QueueStats,
}

impl ArenaQueue {
    pub(super) fn new() -> Self {
        Self {
            seq: 0,
            slab: Vec::new(),
            free_head: NIL,
            heap: Vec::new(),
            stats: QueueStats::default(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(super) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The sequence counter (next seq to be assigned).
    pub(super) fn seq(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn key(&self, h: u32) -> (f64, u64) {
        let r = &self.slab[h as usize];
        (r.time, r.seq)
    }

    #[inline]
    fn less(&self, x: u32, y: u32) -> bool {
        let (tx, sx) = self.key(x);
        let (ty, sy) = self.key(y);
        match tx.total_cmp(&ty) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => sx < sy,
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut best = l;
            if r < n && self.less(self.heap[r], self.heap[l]) {
                best = r;
            }
            if self.less(self.heap[best], self.heap[i]) {
                self.heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }

    /// Queue `event` at `time` under the next sequence number.
    pub(super) fn push(&mut self, time: f64, event: Event) {
        let record = EventRecord::encode(time, self.seq, &event);
        self.seq += 1;
        let h = if self.free_head != NIL {
            // Recycle the most recently freed slot.
            let h = self.free_head;
            self.free_head = self.slab[h as usize].a;
            self.slab[h as usize] = record;
            self.stats.recycled += 1;
            h
        } else {
            let h = narrow(self.slab.len());
            self.slab.push(record);
            h
        };
        self.heap.push(h);
        let at = self.heap.len() - 1;
        self.sift_up(at);
        self.stats.ops += 1;
        let live = (self.slab.len() * std::mem::size_of::<EventRecord>()
            + self.heap.len() * std::mem::size_of::<u32>()) as u64;
        self.stats.bytes_peak = self.stats.bytes_peak.max(live);
    }

    /// Pop the minimum-`(time, seq)` event, freeing its slab slot.
    pub(super) fn pop(&mut self) -> Option<(f64, Event)> {
        let h = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let r = self.slab[h as usize];
        debug_assert_ne!(r.tag, TAG_FREE, "popped a freed record");
        let event = r.decode();
        // Thread the slot onto the freelist; poison the tag so a stale
        // handle read trips the debug assertion above.
        self.slab[h as usize].a = self.free_head;
        self.slab[h as usize].tag = TAG_FREE;
        self.free_head = h;
        self.stats.ops += 1;
        Some((r.time, event))
    }

    /// Serialize the full arena — the sequence counter, slab records (live
    /// *and* freed), the freelist head, the index heap, and the stats — so
    /// a restored queue is structurally identical, not just pop-equivalent:
    /// seq numbering, slot recycling order and `bytes_peak` continue
    /// exactly as they would have.
    pub(super) fn checkpoint(&self, w: &mut Writer) {
        w.u64(self.seq);
        w.usize(self.slab.len());
        for r in &self.slab {
            w.f64(r.time);
            w.u64(r.seq);
            w.u32(r.a);
            w.u32(r.b);
            w.u32(r.c);
            w.u8(r.tag);
            w.u8(r.kind);
        }
        w.u32(self.free_head);
        w.usize(self.heap.len());
        for &h in &self.heap {
            w.u32(h);
        }
        w.u64(self.stats.ops);
        w.u64(self.stats.bytes_peak);
        w.u64(self.stats.recycled);
    }

    /// Rebuild an arena from checkpoint bytes, enforcing every handle and
    /// freelist invariant: a corrupted blob (even one whose frame checksum
    /// was recomputed after tampering) fails with a typed
    /// [`CheckpointError`] instead of poisoning the run.
    pub(super) fn restore(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let corrupt = |msg: String| Err(CheckpointError::Corrupt(msg));
        let seq = r.u64()?;
        let n = r.vec_len(30)?;
        let mut slab = Vec::with_capacity(n);
        for i in 0..n {
            let rec = EventRecord {
                time: r.f64()?,
                seq: r.u64()?,
                a: r.u32()?,
                b: r.u32()?,
                c: r.u32()?,
                tag: r.u8()?,
                kind: r.u8()?,
                _pad: [0; 2],
            };
            if rec.tag > TAG_RESUBMIT && rec.tag != TAG_FREE {
                return corrupt(format!("slab record {i}: unknown event tag {}", rec.tag));
            }
            if rec.kind > 1 {
                return corrupt(format!("slab record {i}: task-kind discriminant {}", rec.kind));
            }
            slab.push(rec);
        }
        let free_head = r.u32()?;
        let heap_len = r.vec_len(4)?;
        let mut heap = Vec::with_capacity(heap_len);
        let mut on_heap = vec![false; n];
        for _ in 0..heap_len {
            let h = r.u32()?;
            let hi = h as usize;
            if hi >= n {
                return corrupt(format!("index heap holds handle {h} but the slab has {n} slots"));
            }
            if slab[hi].tag == TAG_FREE {
                return corrupt(format!("index heap holds handle {h}, a freed (poisoned) record"));
            }
            if on_heap[hi] {
                return corrupt(format!("handle {h} appears twice in the index heap"));
            }
            on_heap[hi] = true;
            heap.push(h);
        }
        // Walk the freelist: every link must stay in range, point at a
        // poisoned record, and terminate without revisiting a slot.
        let mut free_len = 0usize;
        let mut on_freelist = vec![false; n];
        let mut h = free_head;
        while h != NIL {
            let hi = h as usize;
            if hi >= n {
                return corrupt(format!("freelist links to handle {h} outside the slab"));
            }
            if on_freelist[hi] {
                return corrupt(format!("freelist cycles back to handle {h}"));
            }
            if slab[hi].tag != TAG_FREE {
                return corrupt(format!("freelist links to handle {h}, a live record"));
            }
            on_freelist[hi] = true;
            free_len += 1;
            h = slab[hi].a;
        }
        if heap_len + free_len != n {
            return corrupt(format!(
                "slab slots unaccounted for: {n} records but {heap_len} live + {free_len} free"
            ));
        }
        let stats = QueueStats { ops: r.u64()?, bytes_peak: r.u64()?, recycled: r.u64()? };
        let q = Self { seq, slab, free_head, heap, stats };
        // The index heap must satisfy the (time, seq) heap order; a
        // permuted heap would pop events in the wrong order.
        for i in 1..q.heap.len() {
            let parent = (i - 1) / 2;
            if q.less(q.heap[i], q.heap[parent]) {
                return corrupt(format!("index heap order violated at position {i}"));
            }
        }
        Ok(q)
    }

    /// The live (queued, un-popped) events, in heap order, for restore-time
    /// validation that every queued event references state that exists.
    pub(super) fn live_events(&self) -> Vec<(f64, u64, Event)> {
        self.heap
            .iter()
            .map(|&h| {
                let r = &self.slab[h as usize];
                (r.time, r.seq, r.decode())
            })
            .collect()
    }

    /// Bytes of live queue state right now (see [`QueueStats::bytes_peak`]).
    #[cfg(test)]
    pub(super) fn live_bytes(&self) -> u64 {
        (self.slab.len() * std::mem::size_of::<EventRecord>()
            + self.heap.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Freelist length, walked (test-only invariant check).
    #[cfg(test)]
    pub(super) fn free_len(&self) -> usize {
        let mut n = 0;
        let mut h = self.free_head;
        while h != NIL {
            n += 1;
            h = self.slab[h as usize].a;
        }
        n
    }

    #[cfg(test)]
    pub(super) fn slab_len(&self) -> usize {
        self.slab.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<EventRecord>(), 32);
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        let events = [
            Event::Arrival { q: 3 },
            Event::Submit { q: 1, j: 2 },
            Event::TaskDone { attempt: 123_456 },
            Event::TaskFailed { attempt: 0 },
            Event::Retry { q: 9, j: 4, kind: TaskKind::Map, spec_idx: 77 },
            Event::Retry { q: 9, j: 4, kind: TaskKind::Reduce, spec_idx: 0 },
            Event::NodeDown { crash: 2 },
            Event::NodeUp { node: 8, epoch: u64::from(u32::MAX) + 17 },
            Event::DeadlineCheck { q: 5 },
            Event::Resubmit { q: 6 },
        ];
        for e in &events {
            let r = EventRecord::encode(1.5, 42, e);
            assert_eq!(&r.decode(), e, "round-trip of {e:?}");
            assert_eq!(r.time, 1.5);
            assert_eq!(r.seq, 42);
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = ArenaQueue::new();
        q.push(2.0, Event::Arrival { q: 0 });
        q.push(1.0, Event::Submit { q: 1, j: 0 });
        q.push(1.0, Event::TaskDone { attempt: 7 });
        q.push(0.5, Event::Arrival { q: 3 });
        assert_eq!(q.len(), 4);
        assert_eq!(q.seq(), 4);
        let order: Vec<(f64, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0.5, Event::Arrival { q: 3 }),
                (1.0, Event::Submit { q: 1, j: 0 }),
                (1.0, Event::TaskDone { attempt: 7 }),
                (2.0, Event::Arrival { q: 0 }),
            ]
        );
        assert_eq!(q.stats().ops, 8);
    }

    #[test]
    fn slots_recycle_through_the_freelist() {
        let mut q = ArenaQueue::new();
        q.push(1.0, Event::Arrival { q: 0 });
        q.push(2.0, Event::Arrival { q: 1 });
        assert_eq!(q.slab_len(), 2);
        q.pop();
        assert_eq!(q.free_len(), 1);
        // The freed slot is reused: slab does not grow.
        q.push(3.0, Event::Arrival { q: 2 });
        assert_eq!(q.slab_len(), 2);
        assert_eq!(q.free_len(), 0);
        assert_eq!(q.stats().recycled, 1);
        // Invariant: live handles + free slots == slab size.
        assert_eq!(q.len() + q.free_len(), q.slab_len());
        while q.pop().is_some() {}
        assert_eq!(q.len() + q.free_len(), q.slab_len());
        assert_eq!(q.free_len(), 2);
    }

    #[test]
    fn bytes_peak_tracks_live_state_not_total_throughput() {
        let mut q = ArenaQueue::new();
        // Steady-state push/pop: peak stays at the high-water mark of
        // *simultaneous* events, not the total pushed.
        for i in 0..1000u64 {
            q.push(i as f64, Event::Arrival { q: 0 });
            q.pop();
        }
        // One live record at a time: slab of 1 record + 1 handle at peak.
        assert_eq!(q.stats().bytes_peak, 32 + 4);
        assert_eq!(q.stats().recycled, 999);
        assert_eq!(q.live_bytes(), 32); // slab slot retained, heap empty
    }

    /// A queue with a non-trivial freelist (slots 0 and 1 freed, 1 at the
    /// head) serialized to checkpoint bytes. On-wire layout: seq u64, slab
    /// len u64, then 30-byte records (time 8, seq 8, a/b/c 4 each, tag 1,
    /// kind 1), then free_head u32, heap len u64, heap handles u32 each,
    /// stats.
    fn checkpointed_arena() -> (ArenaQueue, Vec<u8>) {
        let mut q = ArenaQueue::new();
        q.push(1.0, Event::Arrival { q: 0 });
        q.push(2.0, Event::Submit { q: 0, j: 0 });
        q.push(3.0, Event::TaskDone { attempt: 5 });
        q.push(4.0, Event::Resubmit { q: 1 });
        q.pop();
        q.pop();
        assert_eq!(q.free_len(), 2);
        let mut w = Writer::new();
        q.checkpoint(&mut w);
        (q, w.finish())
    }

    const REC: usize = 30;
    /// Bytes before the first slab record: the seq counter and slab length.
    const SLAB: usize = 16;
    fn tag_off(i: usize) -> usize {
        SLAB + REC * i + 28
    }
    fn a_off(i: usize) -> usize {
        SLAB + REC * i + 16
    }

    fn restore_err(bytes: &[u8]) -> CheckpointError {
        ArenaQueue::restore(&mut Reader::new(bytes)).err().expect("corrupt blob must be rejected")
    }

    #[test]
    fn arena_checkpoint_round_trips_structurally() {
        let (mut q, bytes) = checkpointed_arena();
        let mut r = Reader::new(&bytes);
        let mut restored = ArenaQueue::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.seq(), q.seq());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.free_len(), q.free_len());
        assert_eq!(restored.slab_len(), q.slab_len());
        assert_eq!(restored.stats(), q.stats());
        // Identical pop stream, seq numbering and slot-recycling behavior.
        for _ in 0..3 {
            assert_eq!(restored.pop(), q.pop());
            restored.push(9.0, Event::Arrival { q: 2 });
            q.push(9.0, Event::Arrival { q: 2 });
        }
        let bytes_of = |q: &ArenaQueue| {
            let mut w = Writer::new();
            q.checkpoint(&mut w);
            w.finish()
        };
        assert_eq!(bytes_of(&restored), bytes_of(&q));
    }

    #[test]
    fn restore_rejects_freelist_pointing_at_live_record() {
        let (_, mut bytes) = checkpointed_arena();
        // free_head = 1 (freed). Repoint it at handle 2, which is live.
        let fh = SLAB + REC * 4;
        bytes[fh..fh + 4].copy_from_slice(&2u32.to_le_bytes());
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("live record"), "{e}");
    }

    #[test]
    fn restore_rejects_freelist_cycle() {
        let (_, mut bytes) = checkpointed_arena();
        // Slot 1 is the freelist head; make its next-link point back at 1.
        bytes[a_off(1)..a_off(1) + 4].copy_from_slice(&1u32.to_le_bytes());
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("cycle"), "{e}");
    }

    #[test]
    fn restore_rejects_out_of_range_freelist_link() {
        let (_, mut bytes) = checkpointed_arena();
        bytes[a_off(1)..a_off(1) + 4].copy_from_slice(&77u32.to_le_bytes());
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("outside the slab"), "{e}");
    }

    #[test]
    fn restore_rejects_heap_handle_at_poisoned_record() {
        let (_, mut bytes) = checkpointed_arena();
        // Poison live record 2's tag; the heap still points at it.
        bytes[tag_off(2)] = TAG_FREE;
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("freed (poisoned) record"), "{e}");
    }

    #[test]
    fn restore_rejects_unknown_event_tag() {
        let (_, mut bytes) = checkpointed_arena();
        bytes[tag_off(2)] = 0x7f;
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("unknown event tag"), "{e}");
    }

    #[test]
    fn restore_rejects_unbalanced_slot_accounting() {
        let (_, mut bytes) = checkpointed_arena();
        // Detach the freelist entirely: two freed slots become orphans.
        let fh = SLAB + REC * 4;
        bytes[fh..fh + 4].copy_from_slice(&NIL.to_le_bytes());
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("unaccounted"), "{e}");
    }

    #[test]
    fn restore_rejects_heap_order_violation() {
        let (_, mut bytes) = checkpointed_arena();
        // Swap the two heap entries: child (time 3) above parent (time 4).
        let heap_base = SLAB + REC * 4 + 4 + 8;
        let (h0, h1) = (heap_base, heap_base + 4);
        let a: [u8; 4] = bytes[h0..h0 + 4].try_into().unwrap();
        let b: [u8; 4] = bytes[h1..h1 + 4].try_into().unwrap();
        bytes[h0..h0 + 4].copy_from_slice(&b);
        bytes[h1..h1 + 4].copy_from_slice(&a);
        let e = restore_err(&bytes);
        assert!(e.to_string().contains("heap order"), "{e}");
    }

    #[test]
    fn restore_rejects_truncated_arena_bytes() {
        let (_, bytes) = checkpointed_arena();
        for cut in [0, 5, 8, SLAB, SLAB + REC, bytes.len() - 1] {
            assert_eq!(
                restore_err(&bytes[..cut]),
                CheckpointError::Truncated,
                "truncation at {cut} bytes"
            );
        }
    }
}
