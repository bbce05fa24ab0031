//! Open-loop request schedule.
//!
//! Requests are due at fixed instants whether or not earlier ones have
//! been answered, so a server slower than the arrival rate accumulates a
//! backlog. Latency is timed from the instant a request was *due*, not
//! from when the generator got round to sending it: a stall of the
//! generator or the server then counts against every request it delayed.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of `requests` sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    pub rate_qps: f64,
    pub requests: usize,
}

/// One sent request: when it was due, when it was actually sent (both
/// as offsets from the schedule's start) and whatever the send returned.
#[derive(Debug)]
pub struct Sent<T> {
    pub due: Duration,
    pub sent: Duration,
    pub handle: T,
}

impl OpenLoop {
    /// The schedule that offers `rate_qps` for `seconds`.
    pub fn for_duration(rate_qps: f64, seconds: f64) -> Self {
        Self {
            rate_qps,
            requests: ((rate_qps * seconds).round() as usize).max(1),
        }
    }

    /// Offset from the start at which request `i` is due.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_qps)
    }

    /// Calls `send(i)` for every request at or after its due time, never
    /// before, and returns the start instant with the send log.
    ///
    /// Waits by sleeping until shortly before the due time and spinning
    /// the rest: inter-arrival gaps are tens of microseconds, below the
    /// granularity of `thread::sleep`, and a generator that oversleeps
    /// quietly turns the open loop into a closed one.
    pub fn drive<T>(&self, mut send: impl FnMut(usize) -> T) -> (Instant, Vec<Sent<T>>) {
        let mut log = Vec::with_capacity(self.requests);
        let start = Instant::now();
        for i in 0..self.requests {
            let due = self.due(i);
            let now = start.elapsed();
            if due > now + Duration::from_micros(200) {
                std::thread::sleep(due - now - Duration::from_micros(100));
            }
            while start.elapsed() < due {
                std::hint::spin_loop();
            }
            let sent = start.elapsed();
            let handle = send(i);
            log.push(Sent { due, sent, handle });
        }
        (start, log)
    }
}

/// Latency of a request completed at `completed`, from its due time.
pub fn latency_from_due(start: Instant, due: Duration, completed: Instant) -> Duration {
    completed.saturating_duration_since(start + due)
}

/// The longest any send ran behind its due time.
pub fn max_lateness<T>(log: &[Sent<T>]) -> Duration {
    log.iter()
        .map(|s| s.sent.saturating_sub(s.due))
        .max()
        .unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = OpenLoop::for_duration(5_000.0, 0.3);
        assert_eq!(s.requests, 1_500);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(5_000), Duration::from_secs(1));
        let gap = s.due(11) - s.due(10);
        assert!((gap.as_secs_f64() - 200e-6).abs() < 1e-9, "{gap:?}");
    }

    #[test]
    fn drive_never_sends_early_and_logs_every_request() {
        let s = OpenLoop {
            rate_qps: 20_000.0,
            requests: 200,
        };
        let (_, log) = s.drive(|i| i);
        assert_eq!(log.len(), 200);
        for (i, sent) in log.iter().enumerate() {
            assert_eq!(sent.handle, i);
            assert_eq!(sent.due, s.due(i));
            assert!(sent.sent >= sent.due, "request {i} sent early");
        }
    }

    #[test]
    fn lateness_and_latency_are_counted_from_the_due_time() {
        let ms = Duration::from_millis;
        let log = vec![
            Sent {
                due: ms(0),
                sent: ms(0),
                handle: (),
            },
            // The generator stalled 4 ms on this one.
            Sent {
                due: ms(1),
                sent: ms(5),
                handle: (),
            },
            Sent {
                due: ms(2),
                sent: ms(5),
                handle: (),
            },
        ];
        assert_eq!(max_lateness(&log), ms(4));
        let start = Instant::now();
        // Answered 1 ms after it was sent, but 5 ms after it was due.
        assert_eq!(latency_from_due(start, ms(1), start + ms(6)), ms(5));
        // A reply stamped before the due time cannot have negative latency.
        assert_eq!(latency_from_due(start, ms(2), start + ms(1)), ms(0));
    }
}
