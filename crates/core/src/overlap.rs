//! Communication–compute overlap: a per-device worker thread that runs
//! fabric collectives in the background so the training loop's matmuls
//! never wait on the network.
//!
//! The S-SGD DAG observation (Shi et al.): layer `L`'s gradient
//! allreduce depends only on layer `L`'s backward, not on layers
//! `L-1..0`, so it can run while the remaining backward computes; and a
//! sampled batch's feature rows depend on nothing the previous batch
//! computes, so their exchange can run a batch ahead. The
//! [`OverlapWorker`] realises both without giving up determinism:
//!
//! * **Operation ids are assigned at submit time on the main thread** (by
//!   `DeviceHandle::begin_op`), in program order. Every rank runs the
//!   identical training program, so op ids agree across ranks even
//!   though execution is asynchronous; mailbox keys embed the op, so a
//!   worker's messages can never collide with the main thread's.
//! * **The worker is FIFO.** Jobs execute in submission order, which
//!   keeps the allreduce rendezvous matched by call order on every rank
//!   (the fabric pairs allreduces positionally, not by key).
//! * **Buckets are summed in a fixed order** inside the fabric's
//!   rank-ordered allreduce, so per-layer bucketed sums are bitwise
//!   identical to one monolithic allreduce of the same matrices.
//!
//! Every wait is bounded: the worker only ever blocks inside fabric
//! primitives (deadline- and poison-bounded, PR 3), and
//! [`Pending::wait`] itself times out after a grace period past the
//! collective deadline, so a dead worker cannot hang the trainer.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dgcl_tensor::Matrix;

use crate::collectives::CollectiveEngine;
use crate::error::{ClusterFailure, RuntimeError};
use crate::fabric::Fabric;

/// One background collective.
enum Job {
    /// Sum matrices across ranks (per-layer gradient bucket) under a
    /// pre-assigned op id.
    Allreduce {
        op: u64,
        mats: Vec<Matrix>,
        reply: Sender<Result<Vec<Matrix>, RuntimeError>>,
    },
    /// Batch row exchange (sampled trainer's feature prefetch) under a
    /// pre-assigned op id.
    Exchange {
        op: u64,
        plan: crate::sampling::GatherPlan,
        reply: Sender<Result<Matrix, RuntimeError>>,
    },
    /// Drain and exit.
    Shutdown,
}

/// The result of a submitted background collective; redeem with
/// [`crate::runtime::DeviceHandle::wait_pending`] (or [`Pending::wait`]
/// directly). Results must be waited in submission order to keep ranks
/// aligned.
pub struct Pending<T> {
    rx: Receiver<Result<T, RuntimeError>>,
    rank: usize,
    what: &'static str,
    deadline: Duration,
}

impl<T> Pending<T> {
    /// Blocks until the background collective finishes.
    ///
    /// # Errors
    ///
    /// The collective's own [`RuntimeError`], or a timeout/protocol
    /// error if the worker died without replying.
    pub fn wait(self) -> Result<T, RuntimeError> {
        match self.rx.recv_timeout(self.deadline) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(RuntimeError::Timeout {
                rank: self.rank,
                op: "overlap_wait",
                stage: self.what.to_string(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(RuntimeError::Protocol {
                rank: self.rank,
                detail: format!("overlap worker died before completing {}", self.what),
            }),
        }
    }
}

/// A per-device background thread executing fabric collectives in FIFO
/// submission order. Created via
/// [`crate::runtime::DeviceHandle::overlap_worker`]; dropped workers
/// shut down and join.
pub struct OverlapWorker {
    tx: Sender<Job>,
    join: Option<JoinHandle<()>>,
    rank: usize,
    wait_deadline: Duration,
}

impl OverlapWorker {
    /// Spawns the worker; per-job buffers cycle through the fabric pool.
    pub(crate) fn spawn(fabric: Arc<Fabric>, rank: usize) -> Self {
        // Grace period past the fabric's own bound, so the worker's
        // in-fabric deadline (or poison) fires first and carries the
        // real error; this outer timeout only guards a vanished worker.
        let wait_deadline = fabric.config().collective_deadline * 2 + Duration::from_secs(2);
        let (tx, rx) = channel::<Job>();
        let join = std::thread::spawn(move || {
            // The worker's own collective engine: op ids come from the
            // main thread, so its messages cannot collide with it.
            let mut engine = CollectiveEngine::new(rank, fabric.num_devices());
            while let Ok(job) = rx.recv() {
                match job {
                    Job::Allreduce { op, mats, reply } => {
                        let elems: usize = mats.iter().map(Matrix::len).sum();
                        let algo = fabric.config().allreduce.pick(4 * elems as u64);
                        let r = engine.allreduce(&fabric, op, algo, mats);
                        poison_own(&fabric, rank, &r);
                        let _ = reply.send(r);
                    }
                    Job::Exchange { op, plan, reply } => {
                        let r = crate::sampling::execute_gather(&fabric, rank, op, &plan);
                        poison_own(&fabric, rank, &r);
                        let _ = reply.send(r);
                    }
                    Job::Shutdown => break,
                }
            }
        });
        Self {
            tx,
            join: Some(join),
            rank,
            wait_deadline,
        }
    }

    /// Enqueues a gradient-bucket allreduce under `op` (assigned by the
    /// main thread's `begin_op`, so keys agree across ranks).
    pub(crate) fn submit_allreduce(
        &self,
        op: u64,
        mats: Vec<Matrix>,
    ) -> Result<Pending<Vec<Matrix>>, RuntimeError> {
        let (reply, rx) = channel();
        self.send(Job::Allreduce { op, mats, reply })?;
        Ok(self.pending(rx, "allreduce"))
    }

    /// Enqueues a batch row exchange under `op` (assigned by the main
    /// thread's `begin_op`, so keys agree across ranks).
    pub(crate) fn submit_exchange(
        &self,
        op: u64,
        plan: crate::sampling::GatherPlan,
    ) -> Result<Pending<Matrix>, RuntimeError> {
        let (reply, rx) = channel();
        self.send(Job::Exchange { op, plan, reply })?;
        Ok(self.pending(rx, "exchange"))
    }

    fn send(&self, job: Job) -> Result<(), RuntimeError> {
        self.tx.send(job).map_err(|_| RuntimeError::Protocol {
            rank: self.rank,
            detail: "overlap worker is gone".to_string(),
        })
    }

    fn pending<T>(&self, rx: Receiver<Result<T, RuntimeError>>, what: &'static str) -> Pending<T> {
        Pending {
            rx,
            rank: self.rank,
            what,
            deadline: self.wait_deadline,
        }
    }
}

impl Drop for OverlapWorker {
    fn drop(&mut self) {
        let _ = self.tx.send(Job::Shutdown);
        if let Some(join) = self.join.take() {
            // Terminates: every fabric wait the worker can be in is
            // deadline- and poison-bounded.
            let _ = join.join();
        }
    }
}

/// Poisons the fabric with an error this worker originated, so blocked
/// peers unwind; propagated poison passes through untouched.
fn poison_own<T>(fabric: &Fabric, rank: usize, r: &Result<T, RuntimeError>) {
    if let Err(e) = r {
        if !matches!(e, RuntimeError::Poisoned { .. }) {
            fabric.poison(rank, ClusterFailure::Error(e.clone()));
        }
    }
}
