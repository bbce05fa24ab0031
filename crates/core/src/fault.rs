//! Deterministic fault injection at the fabric boundary.
//!
//! A [`FaultPlan`] is a fixed list of [`FaultEvent`]s applied while the
//! cluster runs: crash a rank when it reaches a given collective, delay a
//! message, deliver it twice, or hold it back past the link's next
//! message (reorder). Plans are plain data — the same plan replays the
//! same faults — and [`FaultPlan::seeded`] derives a random benign
//! (delay/duplicate/reorder only) plan from a seed, which the chaos suite
//! uses to assert the §6.1 flag protocol's central claim: message timing
//! and delivery order never change training results, only crashes do.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Rank `rank` fails permanently when it starts collective `at_op`
    /// (1-based operation counter; every collective increments it).
    Crash {
        /// The rank to crash.
        rank: usize,
        /// The operation index at which to crash.
        at_op: u64,
    },
    /// Rank `rank` fails permanently *inside* collective `at_op`, after
    /// executing `after_actions` pipeline actions (chunk sends/receives).
    /// An op with fewer actions dies after its last one (at once, when it
    /// has none), so the crash always fires in `at_op` or, for an op that
    /// runs no pipeline, the rank's next one that does.
    /// Unlike [`FaultEvent::Crash`], which fires at the operation
    /// boundary, this models a device dying mid-transfer with some chunks
    /// already delivered — peers must still fail within the deadline.
    CrashMidOp {
        /// The rank to crash.
        rank: usize,
        /// The operation index during which to crash.
        at_op: u64,
        /// How many pipeline actions complete before the crash.
        after_actions: usize,
    },
    /// Rank `rank` fails permanently at the *epoch boundary*: the first
    /// thing the trainer does when entering epoch `epoch` (0-based) is
    /// die, before any collective of that epoch starts. This is the clean
    /// half of the recovery test matrix — the last checkpoint is exactly
    /// one epoch behind — where [`FaultEvent::CrashMidOp`] models dying
    /// with an epoch's collectives half-flown.
    CrashAtEpoch {
        /// The rank to crash.
        rank: usize,
        /// The 0-based epoch at whose start the rank dies.
        epoch: usize,
    },
    /// Messages from `src` to `dst` in plan stage `stage` are delayed by
    /// `delay` before delivery (the sender blocks, like a slow link).
    Delay {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Plan stage of the message.
        stage: u32,
        /// Added link latency.
        delay: Duration,
    },
    /// Messages from `src` to `dst` in plan stage `stage` are delivered
    /// twice (the duplicate must be absorbed by the keyed protocol).
    Duplicate {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Plan stage of the message.
        stage: u32,
    },
    /// Messages from `src` to `dst` in plan stage `stage` are held back
    /// until the link's next message (or until the receiver demands
    /// them), arriving out of order.
    Reorder {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Plan stage of the message.
        stage: u32,
    },
}

/// A deterministic set of faults to inject into one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The events, applied whenever a message or operation matches.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A plan that crashes `rank` when it reaches collective `at_op`.
    pub fn crash(rank: usize, at_op: u64) -> Self {
        Self {
            events: vec![FaultEvent::Crash { rank, at_op }],
        }
    }

    /// A plan that crashes `rank` at the boundary of epoch `epoch`.
    pub fn crash_at_epoch(rank: usize, epoch: usize) -> Self {
        Self {
            events: vec![FaultEvent::CrashAtEpoch { rank, epoch }],
        }
    }

    /// A deterministic single-crash plan derived from `seed`: one rank in
    /// `0..num_devices` dies, either at a random epoch boundary in
    /// `0..max_epoch` or mid-operation (alternating on the seed), so the
    /// recovery suite can sweep seeds and exercise both loss modes.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is zero or `max_epoch` is zero.
    pub fn seeded_crash(seed: u64, num_devices: usize, max_epoch: usize) -> Self {
        assert!(num_devices > 0, "need at least one device");
        assert!(max_epoch > 0, "need at least one epoch to crash in");
        let mut rng = StdRng::seed_from_u64(seed);
        let rank = rng.gen_range(0..num_devices);
        let epoch = rng.gen_range(0..max_epoch);
        let event = if rng.gen_range(0..2u8) == 0 {
            FaultEvent::CrashAtEpoch { rank, epoch }
        } else {
            // Mid-op: die inside one of the epoch's first collectives,
            // after a few pipeline actions.
            FaultEvent::CrashMidOp {
                rank,
                at_op: (epoch as u64) * 2 + 1,
                after_actions: rng.gen_range(1..8),
            }
        };
        Self {
            events: vec![event],
        }
    }

    /// A random *benign* plan (delays, duplicates and reorders — no
    /// crashes) over `num_devices` ranks, derived deterministically from
    /// `seed`. Benign plans must never change training results.
    pub fn seeded(seed: u64, num_devices: usize, num_events: usize, max_delay: Duration) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(num_events);
        for _ in 0..num_events {
            if num_devices < 2 {
                break;
            }
            let src = rng.gen_range(0..num_devices);
            let mut dst = rng.gen_range(0..num_devices - 1);
            if dst >= src {
                dst += 1;
            }
            let stage = rng.gen_range(0..4u32);
            events.push(match rng.gen_range(0..3u8) {
                0 => FaultEvent::Delay {
                    src,
                    dst,
                    stage,
                    delay: Duration::from_micros(
                        rng.gen_range(0..max_delay.as_micros().max(1) as u64),
                    ),
                },
                1 => FaultEvent::Duplicate { src, dst, stage },
                _ => FaultEvent::Reorder { src, dst, stage },
            });
        }
        Self { events }
    }

    /// Whether every event is benign (no crashes).
    pub fn is_benign(&self) -> bool {
        !self.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::Crash { .. }
                    | FaultEvent::CrashMidOp { .. }
                    | FaultEvent::CrashAtEpoch { .. }
            )
        })
    }

    /// The earliest epoch at whose boundary `rank` is scheduled to die,
    /// if a [`FaultEvent::CrashAtEpoch`] names it.
    pub fn crash_epoch(&self, rank: usize) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashAtEpoch { rank: r, epoch } if *r == rank => Some(*epoch),
                _ => None,
            })
            .min()
    }

    /// The earliest op at which `rank` is scheduled to crash, if any.
    pub fn crash_at(&self, rank: usize) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { rank: r, at_op } if *r == rank => Some(*at_op),
                _ => None,
            })
            .min()
    }

    /// The `(op, actions-before-crash)` at which `rank` dies mid-operation,
    /// if a [`FaultEvent::CrashMidOp`] is scheduled for it (earliest op
    /// wins).
    pub fn crash_mid(&self, rank: usize) -> Option<(u64, usize)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashMidOp {
                    rank: r,
                    at_op,
                    after_actions,
                } if *r == rank => Some((*at_op, *after_actions)),
                _ => None,
            })
            .min()
    }

    /// Total injected delay for a `(src, dst, stage)` message.
    pub fn delay_for(&self, src: usize, dst: usize, stage: u32) -> Duration {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Delay {
                    src: s,
                    dst: d,
                    stage: st,
                    delay,
                } if (*s, *d, *st) == (src, dst, stage) => Some(*delay),
                _ => None,
            })
            .sum()
    }

    /// Whether a `(src, dst, stage)` message is delivered twice.
    pub fn duplicates(&self, src: usize, dst: usize, stage: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::Duplicate { src: s, dst: d, stage: st }
                if (*s, *d, *st) == (src, dst, stage))
        })
    }

    /// Whether a `(src, dst, stage)` message is held for reordering.
    pub fn reorders(&self, src: usize, dst: usize, stage: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::Reorder { src: s, dst: d, stage: st }
                if (*s, *d, *st) == (src, dst, stage))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_benign() {
        let a = FaultPlan::seeded(9, 4, 8, Duration::from_millis(5));
        let b = FaultPlan::seeded(9, 4, 8, Duration::from_millis(5));
        assert_eq!(a, b, "same seed, same plan");
        assert!(a.is_benign());
        assert_eq!(a.events.len(), 8);
        let c = FaultPlan::seeded(10, 4, 8, Duration::from_millis(5));
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn crash_at_picks_earliest_op() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Crash { rank: 1, at_op: 7 },
                FaultEvent::Crash { rank: 1, at_op: 3 },
                FaultEvent::Crash { rank: 2, at_op: 1 },
            ],
        };
        assert_eq!(plan.crash_at(1), Some(3));
        assert_eq!(plan.crash_at(2), Some(1));
        assert_eq!(plan.crash_at(0), None);
        assert!(!plan.is_benign());
    }

    #[test]
    fn crash_at_epoch_is_deterministic_and_not_benign() {
        let plan = FaultPlan::crash_at_epoch(3, 2);
        assert!(!plan.is_benign());
        assert_eq!(plan.crash_epoch(3), Some(2));
        assert_eq!(plan.crash_epoch(0), None);
        let a = FaultPlan::seeded_crash(7, 4, 5);
        let b = FaultPlan::seeded_crash(7, 4, 5);
        assert_eq!(a, b, "same seed, same crash");
        assert!(!a.is_benign());
        assert_eq!(a.events.len(), 1);
        // Across seeds both crash modes appear.
        let modes: Vec<bool> = (0..16)
            .map(|s| {
                matches!(
                    FaultPlan::seeded_crash(s, 4, 5).events[0],
                    FaultEvent::CrashAtEpoch { .. }
                )
            })
            .collect();
        assert!(modes.iter().any(|&m| m) && modes.iter().any(|&m| !m));
    }

    #[test]
    fn crash_epoch_picks_earliest() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::CrashAtEpoch { rank: 1, epoch: 4 },
                FaultEvent::CrashAtEpoch { rank: 1, epoch: 2 },
            ],
        };
        assert_eq!(plan.crash_epoch(1), Some(2));
    }

    #[test]
    fn delays_accumulate_per_link_stage() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent::Delay {
                    src: 0,
                    dst: 1,
                    stage: 2,
                    delay: Duration::from_millis(3),
                },
                FaultEvent::Delay {
                    src: 0,
                    dst: 1,
                    stage: 2,
                    delay: Duration::from_millis(4),
                },
            ],
        };
        assert_eq!(plan.delay_for(0, 1, 2), Duration::from_millis(7));
        assert_eq!(plan.delay_for(1, 0, 2), Duration::ZERO);
    }
}
