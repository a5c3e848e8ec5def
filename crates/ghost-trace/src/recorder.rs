//! Bounded per-CPU ring buffers for trace records, ftrace-style: each CPU
//! gets its own ring, reserved up front; pages touched only as records
//! arrive. A full ring overwrites its oldest record (readers prefer recent
//! history), and overwrites are counted so consumers know the stream is
//! lossy. Nothing allocates after construction.

use std::collections::VecDeque;

use crate::{Nanos, TraceEvent, TraceRecord};

#[derive(Debug)]
struct Ring {
    /// Oldest record at the front; never holds more than `cap` records,
    /// so it never grows past its construction-time reservation.
    buf: VecDeque<TraceRecord>,
    cap: usize,
    /// Records overwritten because the ring was full.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

/// Per-CPU lossy trace storage. Records are stamped with a globally
/// monotone sequence number at record time, so the merged view is totally
/// ordered even when virtual timestamps tie.
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Vec<Ring>,
    next_seq: u64,
}

impl TraceRecorder {
    /// `num_cpus` rings of `capacity` records each, reserved up front;
    /// pages touched only as records arrive.
    pub fn new(num_cpus: usize, capacity: usize) -> Self {
        let num_cpus = num_cpus.max(1);
        let capacity = capacity.max(1);
        TraceRecorder {
            rings: (0..num_cpus).map(|_| Ring::new(capacity)).collect(),
            next_seq: 0,
        }
    }

    /// Appends one event to `cpu`'s ring (clamped into range so a stray
    /// CPU id can never panic the hot path).
    pub fn record(&mut self, ts: Nanos, cpu: u16, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = (cpu as usize).min(self.rings.len() - 1);
        self.rings[idx].push(TraceRecord {
            seq,
            ts,
            cpu,
            event,
        });
    }

    /// All surviving records merged across rings, in `seq` order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut all = Vec::with_capacity(self.rings.iter().map(|r| r.buf.len()).sum());
        for r in &self.rings {
            let (front, back) = r.buf.as_slices();
            all.extend_from_slice(front);
            all.extend_from_slice(back);
        }
        all.sort_by_key(|r| r.seq);
        all
    }

    /// Total records overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// Total records ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Discards all records (drop counters and the seq stamp survive, like
    /// `trace_pipe` consuming the buffer).
    pub fn clear(&mut self) {
        self.rings.iter_mut().for_each(|r| r.buf.clear());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(cpu: u16) -> TraceEvent {
        TraceEvent::TickDelivered { cpu }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut rec = TraceRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.record(i, 0, tick(0));
        }
        assert_eq!(rec.dropped(), 6);
        assert_eq!(rec.recorded(), 10);
        let snap = rec.snapshot();
        // The four youngest records survive, in order.
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            snap.iter().map(|r| r.ts).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn per_cpu_rings_merge_in_global_order() {
        let mut rec = TraceRecorder::new(2, 8);
        rec.record(1, 1, tick(1));
        rec.record(2, 0, tick(0));
        rec.record(3, 1, tick(1));
        let snap = rec.snapshot();
        assert_eq!(
            snap.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            snap.iter().map(|r| r.cpu).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
    }

    #[test]
    fn out_of_range_cpu_is_clamped() {
        let mut rec = TraceRecorder::new(2, 4);
        rec.record(0, 999, tick(0));
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut rec = TraceRecorder::new(1, 2);
        for i in 0..5 {
            rec.record(i, 0, tick(0));
        }
        rec.clear();
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.dropped(), 3);
        rec.record(9, 0, tick(0));
        assert_eq!(rec.snapshot()[0].seq, 5);
    }

    /// Sequential reference: every ring keeps its last `cap` records, and
    /// the merged view orders them by `seq`.
    struct Model {
        rings: Vec<Vec<TraceRecord>>,
        cap: usize,
        dropped: u64,
        recorded: u64,
    }

    impl Model {
        fn record(&mut self, ts: Nanos, cpu: u16) {
            let idx = (cpu as usize).min(self.rings.len() - 1);
            let ring = &mut self.rings[idx];
            ring.push(TraceRecord {
                seq: self.recorded,
                ts,
                cpu,
                event: tick(cpu),
            });
            self.recorded += 1;
            if ring.len() > self.cap {
                ring.remove(0);
                self.dropped += 1;
            }
        }

        fn snapshot(&self) -> Vec<TraceRecord> {
            let mut all = self.rings.concat();
            all.sort_by_key(|r| r.seq);
            all
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Record(u16),
        Clear,
    }

    /// splitmix64: a seeded op stream without an RNG dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn rings_match_reference_model() {
        for cpus in 1..=3usize {
            for cap in 1..=5usize {
                for seed in 0..200u64 {
                    // Seed 0 scripts a partly filled ring, a clear, then
                    // fewer than `cap` records into the emptied ring.
                    let mut ops = Vec::new();
                    if seed == 0 {
                        let part = (cap - 1).max(1);
                        ops.extend(std::iter::repeat_n(Op::Record(0), part));
                        ops.push(Op::Clear);
                        ops.extend(std::iter::repeat_n(Op::Record(0), cap - 1));
                    }
                    let mut rng = seed * 31 + (cpus * 8 + cap) as u64;
                    let len = 1 + next(&mut rng) % 40;
                    for _ in 0..len {
                        let r = next(&mut rng);
                        ops.push(if r.is_multiple_of(8) {
                            Op::Clear
                        } else {
                            // One id past the last ring exercises the clamp.
                            Op::Record((r >> 8) as u16 % (cpus as u16 + 1))
                        });
                    }

                    let mut rec = TraceRecorder::new(cpus, cap);
                    let mut model = Model {
                        rings: vec![Vec::new(); cpus],
                        cap,
                        dropped: 0,
                        recorded: 0,
                    };
                    for (i, &op) in ops.iter().enumerate() {
                        match op {
                            Op::Record(cpu) => {
                                rec.record(i as Nanos, cpu, tick(cpu));
                                model.record(i as Nanos, cpu);
                            }
                            Op::Clear => {
                                rec.clear();
                                model.rings.iter_mut().for_each(Vec::clear);
                            }
                        }
                        let ctx =
                            format!("cpus={cpus} cap={cap} seed={seed} after {:?}", &ops[..=i]);
                        assert_eq!(rec.snapshot(), model.snapshot(), "{ctx}");
                        assert_eq!(rec.dropped(), model.dropped, "{ctx}");
                        assert_eq!(rec.recorded(), model.recorded, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn rings_never_grow_past_their_reservation() {
        for cpus in 1..=3usize {
            for cap in 1..=5usize {
                let mut rec = TraceRecorder::new(cpus, cap);
                let reserved: Vec<usize> = rec.rings.iter().map(|r| r.buf.capacity()).collect();
                assert!(reserved.iter().all(|&c| c >= cap));
                for cpu in 0..cpus as u16 {
                    for i in 0..3 * cap {
                        rec.record(i as Nanos, cpu, tick(cpu));
                    }
                }
                let after: Vec<usize> = rec.rings.iter().map(|r| r.buf.capacity()).collect();
                assert_eq!(after, reserved, "cpus={cpus} cap={cap}");
                assert_eq!(rec.dropped(), (cpus * 2 * cap) as u64);
            }
        }
    }
}
