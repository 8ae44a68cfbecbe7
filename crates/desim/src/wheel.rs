//! Bucketed calendar-wheel event scheduler.
//!
//! A binary heap pays `O(log n)` per event plus allocator churn; at
//! millions of events that is the hot path. The wheel exploits the
//! bounded `m ± ε` delay model instead: every gate
//! schedules at most `max_delay` picoseconds ahead, so with a
//! power-of-two horizon `W > max_delay` all pending events live in
//! the window `[now, now + W)` and the bucket index `t & (W − 1)` is
//! collision-free *per timestamp* — two pending events can only share
//! a bucket if they share an exact fire time. Scheduling is a push
//! onto a bucket `Vec` (amortized O(1), no boxing); dispatch drains
//! the next non-empty bucket whole.
//!
//! Finding that next bucket is the only non-trivial part. Sparse
//! equipotential runs (a 1M-inverter string with 8 ns stage delays)
//! would scan thousands of empty 1 ps buckets per event, so the wheel
//! keeps a two-level occupancy bitmap: one bit per bucket, one
//! summary bit per 64-bucket word. A cyclic scan from the cursor is
//! then two or three word probes with `trailing_zeros` — O(1) for any
//! realistic horizon (a 2²⁰-bucket wheel has 16 K words and 256
//! summary bits).
//!
//! Events beyond the horizon (pre-scheduled clock edges whole periods
//! away, delay-fault scalings past nominal) are the *caller's*
//! problem: [`Wheel::fits`] tells the engine to divert them to its
//! sorted far list.

/// One scheduled value change. `gen` is checked against the wire's
/// generation counter at dispatch; stale events are dead on arrival
/// (the wheel never removes cancelled entries — cancellation is a
/// counter bump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub t_ps: u64,
    pub wire: u32,
    pub gen: u32,
    pub value: bool,
}

/// The calendar wheel. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct Wheel {
    mask: u64,
    buckets: Vec<Vec<Ev>>,
    /// One bit per bucket.
    words: Vec<u64>,
    /// One bit per `words` entry.
    summary: Vec<u64>,
    len: usize,
}

impl Wheel {
    /// A wheel whose horizon strictly exceeds `max_delay_ps`
    /// (rounded up to a power of two, at least 64 buckets).
    pub fn with_horizon(max_delay_ps: u64) -> Wheel {
        let capacity = (max_delay_ps + 1).next_power_of_two().max(64);
        assert!(
            capacity <= 1 << 26,
            "calendar wheel horizon {capacity} ps is implausibly large \
             for a per-gate delay bound"
        );
        let capacity = capacity as usize;
        let n_words = capacity / 64;
        Wheel {
            mask: capacity as u64 - 1,
            buckets: vec![Vec::new(); capacity],
            words: vec![0u64; n_words],
            summary: vec![0u64; n_words.div_ceil(64)],
            len: 0,
        }
    }

    /// Horizon in picoseconds.
    #[cfg(test)]
    pub fn horizon_ps(&self) -> u64 {
        self.mask + 1
    }

    /// Whether an event firing at `t_ps` may be pushed while the
    /// clock reads `now_ps`.
    pub fn fits(&self, now_ps: u64, t_ps: u64) -> bool {
        t_ps >= now_ps && t_ps - now_ps <= self.mask
    }

    /// Pending entries (dead events included).
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes an event. The caller must have checked [`Wheel::fits`].
    pub fn push(&mut self, ev: Ev) {
        let b = (ev.t_ps & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        debug_assert!(
            bucket.last().is_none_or(|prev| prev.t_ps == ev.t_ps),
            "bucket collision across timestamps: horizon invariant broken"
        );
        bucket.push(ev);
        self.words[b / 64] |= 1 << (b % 64);
        self.summary[b / (64 * 64)] |= 1 << ((b / 64) % 64);
        self.len += 1;
    }

    /// Puts popped same-time events back at the front of their bucket,
    /// ahead of anything pushed since, so dispatch resumes in the order
    /// it stopped. Only a budgeted run that halts mid-instant needs
    /// this, so it stays off the dispatch path.
    #[cold]
    #[inline(never)]
    pub fn push_front(&mut self, evs: &[Ev]) {
        let Some(first) = evs.first() else { return };
        let b = (first.t_ps & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        debug_assert!(evs.iter().chain(bucket.iter()).all(|e| e.t_ps == first.t_ps));
        bucket.splice(0..0, evs.iter().copied());
        self.words[b / 64] |= 1 << (b % 64);
        self.summary[b / (64 * 64)] |= 1 << ((b / 64) % 64);
        self.len += evs.len();
    }

    /// Fire time of the earliest pending bucket at or after `now_ps`,
    /// or `None` when the wheel is empty.
    pub fn peek_earliest(&self, now_ps: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let b = self.next_occupied((now_ps & self.mask) as usize);
        Some(self.buckets[b][0].t_ps)
    }

    /// Swaps the earliest pending bucket's entries into `out` (which
    /// must be empty) and returns their shared fire time. Bucket
    /// buffers circulate through `out`, so steady-state dispatch does
    /// not allocate.
    pub fn pop_earliest_into(&mut self, now_ps: u64, out: &mut Vec<Ev>) -> Option<u64> {
        debug_assert!(out.is_empty());
        if self.len == 0 {
            return None;
        }
        let b = self.next_occupied((now_ps & self.mask) as usize);
        std::mem::swap(&mut self.buckets[b], out);
        self.words[b / 64] &= !(1 << (b % 64));
        if self.words[b / 64] == 0 {
            self.summary[b / (64 * 64)] &= !(1 << ((b / 64) % 64));
        }
        self.len -= out.len();
        debug_assert!(out.iter().all(|e| e.t_ps == out[0].t_ps));
        Some(out[0].t_ps)
    }

    /// Cyclic two-level bitmap scan: the first occupied bucket at or
    /// after `start`, wrapping. Caller guarantees `len > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        let w0 = start / 64;
        // Tail of the word containing `start`.
        let tail = self.words[w0] >> (start % 64);
        if tail != 0 {
            return start + tail.trailing_zeros() as usize;
        }
        // Remaining words, via the summary bitmap, wrapping once.
        let n_words = self.words.len();
        let mut w = w0 + 1;
        for _ in 0..=self.summary.len() {
            if w >= n_words {
                w = 0;
            }
            let s_idx = w / 64;
            // Summary bits for words >= w within this summary word.
            let s = self.summary[s_idx] >> (w % 64);
            if s != 0 {
                let word = w + s.trailing_zeros() as usize;
                // `word` may equal w0 after wrapping: take its head too.
                let bits = self.words[word];
                debug_assert_ne!(bits, 0);
                return word * 64 + bits.trailing_zeros() as usize;
            }
            // Jump to the next summary word boundary.
            w = (s_idx + 1) * 64;
        }
        unreachable!("wheel len > 0 but no occupied bucket found");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ps: u64, wire: u32) -> Ev {
        Ev {
            t_ps,
            wire,
            gen: 0,
            value: true,
        }
    }

    #[test]
    fn horizon_rounds_to_power_of_two() {
        assert_eq!(Wheel::with_horizon(1).horizon_ps(), 64);
        assert_eq!(Wheel::with_horizon(63).horizon_ps(), 64);
        assert_eq!(Wheel::with_horizon(64).horizon_ps(), 128);
        assert_eq!(Wheel::with_horizon(8_400).horizon_ps(), 16_384);
    }

    #[test]
    fn fits_is_the_horizon_window() {
        let w = Wheel::with_horizon(100); // horizon 128
        assert!(w.fits(1_000, 1_000));
        assert!(w.fits(1_000, 1_127));
        assert!(!w.fits(1_000, 1_128));
        assert!(!w.fits(1_000, 999));
    }

    #[test]
    fn pops_in_time_order_across_wrap() {
        let mut w = Wheel::with_horizon(100); // horizon 128
        // now = 100; events at 130 and 210 wrap around the wheel.
        w.push(ev(210, 1));
        w.push(ev(130, 2));
        w.push(ev(130, 3));
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        assert_eq!(w.peek_earliest(100), Some(130));
        assert_eq!(w.pop_earliest_into(100, &mut out), Some(130));
        // Same-time events keep push order (the seq discipline).
        assert_eq!(
            out.iter().map(|e| e.wire).collect::<Vec<_>>(),
            vec![2, 3]
        );
        out.clear();
        assert_eq!(w.pop_earliest_into(130, &mut out), Some(210));
        assert_eq!(out[0].wire, 1);
        out.clear();
        assert!(w.is_empty());
        assert_eq!(w.pop_earliest_into(210, &mut out), None);
    }

    #[test]
    fn sparse_scan_crosses_summary_words() {
        // Large wheel, single event far from the cursor: the scan
        // must hop summary words, not walk buckets.
        let mut w = Wheel::with_horizon(1 << 20); // horizon 2^21
        let now = 5u64;
        let t = now + (1 << 20) + 12_345;
        w.push(ev(t, 9));
        assert_eq!(w.peek_earliest(now), Some(t));
        let mut out = Vec::new();
        assert_eq!(w.pop_earliest_into(now, &mut out), Some(t));
        assert_eq!(out[0].wire, 9);
    }

    #[test]
    fn dense_same_bucket_reuse_after_drain() {
        let mut w = Wheel::with_horizon(100);
        let mut out = Vec::new();
        // Drain and refill the same bucket repeatedly; occupancy
        // bits must track exactly.
        for round in 0u64..5 {
            let t = 130 + round * 128; // same bucket index every round
            w.push(ev(t, round as u32));
            assert_eq!(w.pop_earliest_into(t - 5, &mut out), Some(t));
            assert_eq!(out.len(), 1);
            out.clear();
            assert!(w.is_empty());
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = Wheel::with_horizon(1_000); // horizon 1024
        let mut out = Vec::new();
        let mut now = 0u64;
        let mut fired = Vec::new();
        w.push(ev(3, 0));
        w.push(ev(700, 1));
        while let Some(t) = w.pop_earliest_into(now, &mut out) {
            assert!(t >= now);
            now = t;
            for e in out.drain(..) {
                fired.push((e.t_ps, e.wire));
                // React: schedule further ahead, within horizon.
                if e.wire < 4 {
                    w.push(ev(t + 500, e.wire + 10));
                }
            }
        }
        assert_eq!(
            fired,
            vec![(3, 0), (503, 10), (700, 1), (1_200, 11)]
        );
    }
}
