//! Open-loop send schedule and per-op freshness accounting.
//!
//! An open loop sends op `j` when it is *due* (`j / rate` after the
//! phase starts), whether or not earlier ops have been served. Every
//! latency is timed from the due time, so a stall that delays later
//! sends is charged to those ops too; how late the generator itself ran
//! is reported separately. Each op has a visibility deadline: an op not
//! readable by `due + deadline` — or never sent — counts as failed.

use crate::stats::Samples;

/// Due/sent/visible times of the ops of one open-loop phase, all in
/// nanoseconds on one clock.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Stream index of the phase's first op (snapshots count ops from
    /// the start of the whole stream).
    first: u64,
    start_ns: u64,
    rate_per_s: f64,
    sent: Vec<Option<u64>>,
    visible: Vec<Option<u64>>,
    /// Ops below this phase index are already marked visible.
    seen: usize,
}

impl Ledger {
    /// A phase of `count` ops, the first being stream op `first`, sent
    /// at `rate_per_s` from `start_ns`.
    pub fn new(first: u64, count: usize, rate_per_s: f64, start_ns: u64) -> Self {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Self {
            first,
            start_ns,
            rate_per_s,
            sent: vec![None; count],
            visible: vec![None; count],
            seen: 0,
        }
    }

    /// Stream index of the phase's first op.
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Ops in the phase.
    pub fn len(&self) -> usize {
        self.sent.len()
    }

    /// When phase op `j` is due.
    pub fn due_ns(&self, j: usize) -> u64 {
        self.start_ns + (j as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// Records that phase op `j` was accepted at `now_ns`.
    pub fn sent(&mut self, j: usize, now_ns: u64) {
        self.sent[j] = Some(now_ns);
    }

    /// Records a snapshot reflecting the first `applied` stream ops,
    /// first read at `now_ns`: every phase op it covers that was not yet
    /// visible becomes visible now.
    pub fn observe(&mut self, applied: u64, now_ns: u64) {
        let upto = (applied.saturating_sub(self.first) as usize).min(self.len());
        for v in &mut self.visible[self.seen.min(upto)..upto] {
            *v = Some(now_ns);
        }
        self.seen = self.seen.max(upto);
    }

    /// True once every op is visible or past its deadline.
    pub fn settled(&self, now_ns: u64, deadline_ns: u64) -> bool {
        self.seen == self.len()
            || (self.seen..self.len()).all(|j| now_ns > self.due_ns(j) + deadline_ns)
    }

    /// Due → first-visible latency of every op visible by its deadline,
    /// in milliseconds.
    pub fn freshness_ms(&self, deadline_ns: u64) -> Samples {
        let mut s = Samples::new();
        for (j, v) in self.visible.iter().enumerate() {
            if let Some(t) = *v {
                let lat = t.saturating_sub(self.due_ns(j));
                if lat <= deadline_ns {
                    s.push(lat as f64 / 1e6);
                }
            }
        }
        s
    }

    /// How late each accepted send was against its due time, in
    /// milliseconds.
    pub fn lateness_ms(&self) -> Samples {
        let mut s = Samples::new();
        for (j, t) in self.sent.iter().enumerate() {
            if let Some(t) = *t {
                s.push(t.saturating_sub(self.due_ns(j)) as f64 / 1e6);
            }
        }
        s
    }

    /// Ops never accepted, never visible, or visible only after their
    /// deadline.
    pub fn failed(&self, deadline_ns: u64) -> u64 {
        (0..self.len())
            .filter(|&j| match (self.sent[j], self.visible[j]) {
                (Some(_), Some(t)) => t.saturating_sub(self.due_ns(j)) > deadline_ns,
                _ => true,
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_follow_the_rate() {
        let l = Ledger::new(0, 4, 500.0, 10 * MS);
        assert_eq!(l.due_ns(0), 10 * MS);
        assert_eq!(l.due_ns(3), 16 * MS);
    }

    #[test]
    fn a_stall_is_charged_to_every_op_it_delays() {
        // 1000 ops/s: ops due at 0, 1, 2 ms. The generator stalls and
        // sends all three at 5 ms; one snapshot covers them at 7 ms.
        let mut l = Ledger::new(100, 3, 1000.0, 0);
        for j in 0..3 {
            l.sent(j, 5 * MS);
        }
        l.observe(103, 7 * MS);
        let mut f = l.freshness_ms(u64::MAX);
        assert_eq!(f.len(), 3);
        assert_eq!(f.max(), 7.0, "timed from the due time, not the send");
        assert_eq!(f.p50(), 6.0);
        let late = l.lateness_ms();
        assert_eq!(late.max(), 5.0);
        assert_eq!(late.mean(), (5.0 + 4.0 + 3.0) / 3.0);
        assert_eq!(l.failed(u64::MAX), 0);
    }

    #[test]
    fn visibility_is_first_observation_and_offset_by_the_phase_start() {
        let mut l = Ledger::new(10, 3, 1000.0, 0);
        for j in 0..3 {
            l.sent(j, j as u64 * MS);
        }
        l.observe(9, MS); // before the phase: nothing
        l.observe(11, 2 * MS); // op 0
        l.observe(11, 9 * MS); // repeat read: no change
        assert!(!l.settled(3 * MS, 10 * MS));
        l.observe(13, 4 * MS); // ops 1 and 2
        assert!(l.settled(4 * MS, 10 * MS));
        let f = l.freshness_ms(u64::MAX);
        assert_eq!(f.sum(), 2.0 + 3.0 + 2.0);
    }

    #[test]
    fn unsent_invisible_and_late_ops_fail() {
        let mut l = Ledger::new(0, 4, 1000.0, 0);
        l.sent(0, 0);
        l.sent(1, MS);
        l.sent(2, 2 * MS);
        // Op 3 is never accepted (shard closed).
        l.observe(1, MS); // op 0 on time
        l.observe(2, 60 * MS); // op 1 visible 59 ms after due
        assert_eq!(l.failed(50 * MS), 3, "late, invisible, unsent");
        assert_eq!(l.freshness_ms(50 * MS).len(), 1);
        assert!(!l.settled(50 * MS, 50 * MS));
        assert!(
            l.settled(54 * MS, 50 * MS),
            "every pending op is past its deadline"
        );
    }
}
