//! The serving simulator's event queue.
//!
//! A binary heap's O(log n) pops start to hurt once a fleet run pushes
//! 10^7–10^8 events through the loop. The `CalendarQueue` here is the
//! classic Brown calendar queue: events hash
//! into time-bucketed "days" of a rotating "year", so push and pop are
//! O(1) amortized while the bucket width tracks the mean event spacing.
//!
//! Determinism contract: events are keyed by `(time, seq)`, a *strict*
//! total order (seq is unique), so a correct queue pops exactly one
//! sequence. The unit tests below check the calendar against a binary
//! heap on random interleaved schedules, and the event loop
//! `debug_assert!`s that every run pops strictly increasing `(time, seq)`
//! keys.

/// One scheduled entry: fires at `time`, ties broken by unique `seq`.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

/// Brown-style calendar queue over `(time, seq, item)` entries.
///
/// Buckets are a power-of-two array of "days"; an entry lands in bucket
/// `day % n` where `day = (time / width) as u64`. Popping scans the
/// current day's bucket for the minimal `(time, seq)` among entries whose
/// day index equals the current day — the *same* float division as
/// placement, so bucket membership and the year filter can never disagree
/// at a boundary — then advances day by day, jumping straight to the
/// global minimum's day when a full year passes empty. Bucket count and
/// width are rebuilt from live occupancy so days stay O(1) full.
///
/// Tuned for monotone scheduling (the simulator always schedules at
/// `now + gap`), but a push behind the current day simply rewinds the
/// calendar, so ordering holds unconditionally.
#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    len: usize,
    width: f64,
    /// Absolute index of the day currently being drained.
    day: u64,
    /// Last popped (or initial) time; rebuild floor scales from it.
    last_time: f64,
}

impl<T: Copy> CalendarQueue<T> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: vec![Vec::new(); 2],
            len: 0,
            width: 1.0,
            day: 0,
            last_time: 0.0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn day_of(&self, time: f64) -> u64 {
        debug_assert!(time.is_finite() && time >= 0.0);
        (time / self.width) as u64
    }

    pub(crate) fn push(&mut self, time: f64, seq: u64, item: T) {
        let day = self.day_of(time);
        // The simulator schedules monotonically, but a push behind the
        // current day must rewind the calendar rather than be orphaned
        // until the wrap-around scan.
        if day < self.day {
            self.day = day;
        }
        let idx = (day % self.buckets.len() as u64) as usize;
        self.buckets[idx].push(Entry { time, seq, item });
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        for _ in 0..n {
            if let Some(best) = self.min_in_day(self.day) {
                return Some(self.take(best));
            }
            self.day += 1;
        }
        // A full year passed with nothing due: the next event is far in
        // the future. Jump the calendar to the global minimum's day.
        let (b, i) = self.global_min();
        self.day = self.day_of(self.buckets[b][i].time);
        let best = self.min_in_day(self.day).expect("minimum is in this day");
        Some(self.take(best))
    }

    /// Index (within the day's bucket) of the minimal `(time, seq)` entry
    /// belonging to absolute day `day`, or `None` if the bucket has none.
    fn min_in_day(&self, day: u64) -> Option<usize> {
        let bucket = &self.buckets[(day % self.buckets.len() as u64) as usize];
        let mut best: Option<usize> = None;
        for (i, e) in bucket.iter().enumerate() {
            if self.day_of(e.time) != day {
                continue;
            }
            let better = best.is_none_or(|b| {
                let cur = &bucket[b];
                (e.time, e.seq) < (cur.time, cur.seq)
            });
            if better {
                best = Some(i);
            }
        }
        best
    }

    fn global_min(&self) -> (usize, usize) {
        let mut best: Option<(usize, usize, f64, u64)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, t, s)| (e.time, e.seq) < (t, s)) {
                    best = Some((b, i, e.time, e.seq));
                }
            }
        }
        let (b, i, _, _) = best.expect("queue is non-empty");
        (b, i)
    }

    fn take(&mut self, idx: usize) -> (f64, u64, T) {
        let bucket = (self.day % self.buckets.len() as u64) as usize;
        let e = self.buckets[bucket].swap_remove(idx);
        self.len -= 1;
        self.last_time = e.time;
        if self.len >= 4 && self.len < self.buckets.len() / 2 {
            self.resize((self.buckets.len() / 2).max(2));
        }
        (e.time, e.seq, e.item)
    }

    /// Rebuilds the calendar with `n` buckets (rounded up to a power of
    /// two) and a width matching the live entries' mean spacing.
    fn resize(&mut self, n: usize) {
        let n = n.next_power_of_two().max(2);
        let mut entries: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &entries {
            lo = lo.min(e.time);
            hi = hi.max(e.time);
        }
        let span = if entries.is_empty() { 0.0 } else { hi - lo };
        // Width floor scales with the clock so deep-simulated-time runs
        // (t ~ 1e6 s) keep `time / width` well inside u64 range.
        let floor = (self.last_time.abs() * 1e-9).max(1e-9);
        self.width = (span / entries.len().max(1) as f64).max(floor);
        self.buckets = vec![Vec::new(); n];
        let anchor = if entries.is_empty() {
            self.last_time
        } else {
            lo
        };
        self.day = self.day_of(anchor);
        self.len = entries.len();
        for e in entries {
            let idx = (self.day_of(e.time) % n as u64) as usize;
            self.buckets[idx].push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The oracle: a min-heap keyed by `(time bits, seq)`. For the
    /// non-negative finite times the simulator schedules, the IEEE bit
    /// pattern orders exactly like the value.
    #[derive(Default)]
    struct Heap(BinaryHeap<Reverse<(u64, u64, u32)>>);

    impl Heap {
        fn push(&mut self, time: f64, seq: u64, item: u32) {
            self.0.push(Reverse((time.to_bits(), seq, item)));
        }

        fn pop(&mut self) -> Option<(f64, u64, u32)> {
            self.0
                .pop()
                .map(|Reverse((t, seq, item))| (f64::from_bits(t), seq, item))
        }
    }

    /// Push a randomized schedule through the calendar and the heap and
    /// demand the identical pop sequence.
    #[test]
    fn calendar_matches_heap_on_random_interleaved_ops() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xCA1E_0000 + seed);
            let mut heap = Heap::default();
            let mut cal = CalendarQueue::<u32>::new();
            let mut seq = 0u64;
            let mut clock = 0.0f64;
            for step in 0..5_000 {
                // Bias towards pushes early, pops late; occasional far-future
                // events exercise the year-jump path.
                let push = heap.0.is_empty() || rng.gen_bool(if step < 3_000 { 0.7 } else { 0.3 });
                if push {
                    let horizon = if rng.gen_bool(0.02) { 500.0 } else { 1.0 };
                    let t = clock + rng.gen_range(0.0..horizon);
                    heap.push(t, seq, step as u32);
                    cal.push(t, seq, step as u32);
                    seq += 1;
                } else {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b, "seed {seed} step {step}");
                    clock = a.expect("non-empty").0;
                }
            }
            while let Some(a) = heap.pop() {
                assert_eq!(Some(a), cal.pop(), "seed {seed} drain");
            }
            assert!(cal.is_empty());
        }
    }

    #[test]
    fn simultaneous_events_pop_in_seq_order() {
        let mut cal = CalendarQueue::<u8>::new();
        for seq in [3u64, 0, 2, 1] {
            cal.push(1.0, seq, seq as u8);
        }
        for want in 0..4u64 {
            let (t, seq, _) = cal.pop().expect("four entries");
            assert_eq!((t, seq), (1.0, want));
        }
    }

    #[test]
    fn shrink_and_grow_resizes_keep_order() {
        let mut cal = CalendarQueue::<u32>::new();
        for i in 0..1024u64 {
            cal.push(i as f64 * 0.01, i, i as u32);
        }
        for want in 0..1024u64 {
            assert_eq!(cal.pop().map(|(_, s, _)| s), Some(want));
        }
        assert!(cal.pop().is_none());
    }
}
