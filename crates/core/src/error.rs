//! Typed runtime failures.
//!
//! The paper's §6.1 protocol has no master in the data path, which means
//! a failed device cannot be observed anywhere *except* at the peers it
//! wedges. These types make that observation explicit: every collective
//! returns [`RuntimeError`] instead of panicking or blocking forever, and
//! [`crate::runtime::run_cluster`] folds the per-device outcomes into one
//! [`ClusterError`] naming the originating rank and cause.

use std::fmt;
use std::time::Duration;

use dgcl_graph::GraphError;

/// A failure inside one device's collective operation.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A peer did not make progress within the collective deadline.
    Timeout {
        /// The rank whose collective timed out (the waiter).
        rank: usize,
        /// The fabric operation that was waiting: always `"recv"`, the
        /// mailbox receive, the fabric's one blocking wait.
        op: &'static str,
        /// What exactly was being waited for (peer, message key).
        stage: String,
    },
    /// Another device failed first and poisoned the fabric.
    Poisoned {
        /// The rank whose failure poisoned the fabric.
        origin: usize,
        /// The originating failure, rendered.
        reason: String,
    },
    /// The plan or a peer violated the communication protocol.
    Protocol {
        /// The rank that detected the violation.
        rank: usize,
        /// What was violated.
        detail: String,
    },
    /// An injected crash from a [`crate::fault::FaultPlan`].
    InjectedCrash {
        /// The crashed rank.
        rank: usize,
        /// The operation index at which it crashed.
        at_op: u64,
    },
    /// An injected epoch-boundary crash from a
    /// [`crate::fault::FaultPlan`] (`CrashAtEpoch`): the rank died
    /// entering `epoch`, before any of its collectives ran.
    InjectedEpochCrash {
        /// The crashed rank.
        rank: usize,
        /// The 0-based epoch at whose boundary it crashed.
        epoch: usize,
    },
    /// The cluster-summed training loss is no longer finite: the run
    /// diverged. Every rank holds the same summed loss bits, so every
    /// rank returns this error at the same step and none is left
    /// waiting; no rank died, so recovery does not apply.
    Diverged {
        /// The 0-based epoch whose loss stopped being finite.
        epoch: usize,
        /// That epoch's loss summed up to the failing step.
        loss: f32,
    },
    /// [`crate::comm_info::try_build_comm_info`] was given a graph that
    /// is not symmetric with ascending rows. The multilevel partitioner
    /// coarsens an undirected graph.
    InvalidGraph(GraphError),
}

impl RuntimeError {
    /// Whether this failure *originated* on the rank reporting it, as
    /// opposed to being the propagated echo of another rank's death.
    /// Recovery evicts originators and keeps echo victims.
    pub fn is_origin(&self) -> bool {
        !matches!(self, RuntimeError::Poisoned { .. })
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Timeout { rank, op, stage } => {
                write!(f, "rank {rank} timed out in {op} ({stage})")
            }
            RuntimeError::Poisoned { origin, reason } => {
                write!(f, "fabric poisoned by rank {origin}: {reason}")
            }
            RuntimeError::Protocol { rank, detail } => {
                write!(f, "protocol violation on rank {rank}: {detail}")
            }
            RuntimeError::InjectedCrash { rank, at_op } => {
                write!(f, "injected crash of rank {rank} at op {at_op}")
            }
            RuntimeError::InjectedEpochCrash { rank, epoch } => {
                write!(f, "injected crash of rank {rank} at epoch {epoch} boundary")
            }
            RuntimeError::Diverged { epoch, loss } => {
                write!(f, "training diverged in epoch {epoch}: loss {loss}")
            }
            RuntimeError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Why one device thread failed: an unwound panic or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterFailure {
    /// The device thread panicked; the payload rendered as text.
    Panic(String),
    /// The device returned a [`RuntimeError`].
    Error(RuntimeError),
}

impl ClusterFailure {
    /// Whether this failure originated on the rank that recorded it (a
    /// panic, crash, timeout or protocol violation) rather than arriving
    /// as poison from another rank's death. See
    /// [`RuntimeError::is_origin`].
    pub fn is_origin(&self) -> bool {
        match self {
            ClusterFailure::Panic(_) => true,
            ClusterFailure::Error(e) => e.is_origin(),
        }
    }
}

impl fmt::Display for ClusterFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterFailure::Panic(msg) => write!(f, "panic: {msg}"),
            ClusterFailure::Error(e) => write!(f, "{e}"),
        }
    }
}

/// The outcome of a failed cluster run: the originating rank, its
/// failure, and what every other rank observed.
#[derive(Debug, Clone)]
pub struct ClusterError {
    /// The rank whose failure poisoned the fabric first.
    pub rank: usize,
    /// The originating failure.
    pub cause: ClusterFailure,
    /// Per-rank outcome: `None` for ranks that completed before the
    /// poison reached them, `Some` for ranks that failed.
    pub per_rank: Vec<Option<ClusterFailure>>,
    /// The collective deadline the run was configured with.
    pub deadline: Duration,
}

impl ClusterError {
    /// Ranks other than the originator that observed the failure.
    pub fn surviving_errors(&self) -> impl Iterator<Item = (usize, &ClusterFailure)> {
        self.per_rank
            .iter()
            .enumerate()
            .filter(move |&(r, _)| r != self.rank)
            .filter_map(|(r, e)| e.as_ref().map(|e| (r, e)))
    }

    /// The ranks a recovery driver must evict: every rank whose recorded
    /// failure *originated* locally (crash, panic, timeout, protocol
    /// violation), plus the originating rank itself. Ranks that merely
    /// observed another death as [`RuntimeError::Poisoned`] — and ranks
    /// that completed before the poison reached them — are survivors.
    ///
    /// A silent deserter (a rank that returned early and left its peers
    /// to time out) cannot be identified from the outcomes — its own
    /// record is clean — so the timed-out originator is evicted in its
    /// stead; recovery still converges, one eviction later.
    pub fn dead_ranks(&self) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .per_rank
            .iter()
            .enumerate()
            .filter_map(|(r, e)| match e {
                Some(f) if f.is_origin() => Some(r),
                _ => None,
            })
            .collect();
        if !dead.contains(&self.rank) {
            dead.push(self.rank);
            dead.sort_unstable();
        }
        dead
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self.per_rank.iter().filter(|e| e.is_some()).count();
        write!(
            f,
            "cluster failed: rank {} {} ({failed}/{} ranks failed)",
            self.rank,
            self.cause,
            self.per_rank.len()
        )?;
        // Multi-failure recovery decisions need every rank's outcome, not
        // just the first poisoner's: list the other failed ranks with
        // their causes (originators before echo victims).
        let mut others: Vec<(usize, &ClusterFailure)> = self
            .per_rank
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != self.rank)
            .filter_map(|(r, e)| e.as_ref().map(|e| (r, e)))
            .collect();
        others.sort_by_key(|(r, e)| (!e.is_origin(), *r));
        if !others.is_empty() {
            write!(f, "; also")?;
            for (i, (r, e)) in others.iter().enumerate() {
                let sep = if i == 0 { " " } else { ", " };
                write!(f, "{sep}rank {r}: {e}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_rank_and_cause() {
        let e = ClusterError {
            rank: 2,
            cause: ClusterFailure::Error(RuntimeError::Timeout {
                rank: 2,
                op: "recv",
                stage: "peer 1".to_string(),
            }),
            per_rank: vec![None, None, Some(ClusterFailure::Panic("boom".into())), None],
            deadline: Duration::from_secs(5),
        };
        let s = e.to_string();
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("timed out"), "{s}");
    }

    #[test]
    fn surviving_errors_skips_originator_and_completed() {
        let poisoned = ClusterFailure::Error(RuntimeError::Poisoned {
            origin: 1,
            reason: "x".into(),
        });
        let e = ClusterError {
            rank: 1,
            cause: ClusterFailure::Panic("dead".into()),
            per_rank: vec![
                Some(poisoned.clone()),
                Some(ClusterFailure::Panic("dead".into())),
                None,
                Some(poisoned),
            ],
            deadline: Duration::from_secs(5),
        };
        let survivors: Vec<usize> = e.surviving_errors().map(|(r, _)| r).collect();
        assert_eq!(survivors, vec![0, 3]);
    }

    fn multi_failure() -> ClusterError {
        // Rank 1 crashed first; rank 3 independently panicked; ranks 0
        // and 2 saw the poison; rank 4 completed beforehand.
        let poisoned = ClusterFailure::Error(RuntimeError::Poisoned {
            origin: 1,
            reason: "injected crash of rank 1 at op 3".into(),
        });
        ClusterError {
            rank: 1,
            cause: ClusterFailure::Error(RuntimeError::InjectedCrash { rank: 1, at_op: 3 }),
            per_rank: vec![
                Some(poisoned.clone()),
                Some(ClusterFailure::Error(RuntimeError::InjectedCrash {
                    rank: 1,
                    at_op: 3,
                })),
                Some(poisoned),
                Some(ClusterFailure::Panic("oom".into())),
                None,
            ],
            deadline: Duration::from_secs(5),
        }
    }

    #[test]
    fn display_lists_all_failed_ranks_and_causes() {
        let s = multi_failure().to_string();
        // Originator first, then the other failures with their causes:
        // the independent panic before the poison echoes.
        assert!(s.contains("rank 1 injected crash"), "{s}");
        assert!(s.contains("4/5 ranks failed"), "{s}");
        assert!(s.contains("rank 3: panic: oom"), "{s}");
        assert!(s.contains("rank 0: fabric poisoned"), "{s}");
        assert!(s.contains("rank 2: fabric poisoned"), "{s}");
        let pos = |needle: &str| s.find(needle).unwrap();
        assert!(
            pos("rank 3:") < pos("rank 0:"),
            "origins before echoes: {s}"
        );
    }

    #[test]
    fn dead_ranks_are_origins_only() {
        let e = multi_failure();
        assert_eq!(e.dead_ranks(), vec![1, 3]);
    }

    #[test]
    fn dead_ranks_always_includes_originator() {
        // Degenerate case: the originating rank's own slot records only
        // the echo (e.g. its typed error was overwritten by poison
        // observed on a later op) — eviction must still include it.
        let e = ClusterError {
            rank: 2,
            cause: ClusterFailure::Panic("dead".into()),
            per_rank: vec![
                None,
                None,
                Some(ClusterFailure::Error(RuntimeError::Poisoned {
                    origin: 2,
                    reason: "x".into(),
                })),
                None,
            ],
            deadline: Duration::from_secs(5),
        };
        assert_eq!(e.dead_ranks(), vec![2]);
    }
}
