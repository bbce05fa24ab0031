//! Communication–compute overlap: a per-device worker thread that runs
//! the sampled trainer's feature prefetch in the background, so a
//! batch's row exchange never stalls the step that needs it.
//!
//! A sampled batch's feature rows depend on nothing the previous batch
//! computes, so their exchange can run a batch ahead (the S-SGD DAG
//! observation, Shi et al.: overlap changes where a communication node
//! runs, not the task graph). That is the worker's one job. The gradient
//! allreduce is not one: it is a single inline collective at the end of
//! every step, and every full-neighbourhood gather needs the previous
//! layer's output. The [`OverlapWorker`] keeps determinism:
//!
//! * **Operation ids are assigned at submit time on the main thread** (by
//!   `DeviceHandle::begin_op`), in program order. Every rank runs the
//!   identical training program, so op ids agree across ranks even
//!   though execution is asynchronous; mailbox keys embed the op, so a
//!   worker's messages can never collide with the main thread's.
//! * **The worker is FIFO.** Jobs execute in submission order.
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

use crate::error::{ClusterFailure, RuntimeError};
use crate::fabric::Fabric;
use crate::sampling::GatherPlan;

/// One background row exchange (the next batch's feature fetch) under a
/// pre-assigned op id.
struct Job {
    op: u64,
    plan: GatherPlan,
    reply: Sender<Result<Matrix, RuntimeError>>,
}

/// The result of a submitted row exchange; redeem with
/// [`crate::runtime::DeviceHandle::wait_pending`] (or [`Pending::wait`]
/// directly). Results must be waited in submission order to keep ranks
/// aligned.
pub struct Pending {
    rx: Receiver<Result<Matrix, RuntimeError>>,
    rank: usize,
    deadline: Duration,
}

impl Pending {
    /// Blocks until the background exchange finishes.
    ///
    /// # Errors
    ///
    /// The exchange's own [`RuntimeError`], or a timeout/protocol error
    /// if the worker died without replying.
    pub fn wait(self) -> Result<Matrix, RuntimeError> {
        match self.rx.recv_timeout(self.deadline) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(RuntimeError::Timeout {
                rank: self.rank,
                op: "overlap_wait",
                stage: "exchange".to_string(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(RuntimeError::Protocol {
                rank: self.rank,
                detail: "overlap worker died before completing exchange".to_string(),
            }),
        }
    }
}

/// A per-device background thread executing row exchanges in FIFO
/// submission order. Created via
/// [`crate::runtime::DeviceHandle::overlap_worker`]; dropped workers
/// shut down and join.
pub struct OverlapWorker {
    /// `None` only while dropping: closing the channel ends the worker.
    tx: Option<Sender<Job>>,
    join: Option<JoinHandle<()>>,
    rank: usize,
    wait_deadline: Duration,
}

impl OverlapWorker {
    /// Spawns the worker.
    pub(crate) fn spawn(fabric: Arc<Fabric>, rank: usize) -> Self {
        // Grace period past the fabric's own bound, so the worker's
        // in-fabric deadline (or poison) fires first and carries the
        // real error; this outer timeout only guards a vanished worker.
        let wait_deadline = fabric.config().collective_deadline * 2 + Duration::from_secs(2);
        let (tx, rx) = channel::<Job>();
        let join = std::thread::spawn(move || {
            while let Ok(Job { op, plan, reply }) = rx.recv() {
                let r = crate::sampling::execute_gather(&fabric, rank, op, &plan);
                // Poison with an error this worker originated, so blocked
                // peers unwind; propagated poison passes through.
                if let Err(e) = &r {
                    if !matches!(e, RuntimeError::Poisoned { .. }) {
                        fabric.poison(rank, ClusterFailure::Error(e.clone()));
                    }
                }
                let _ = reply.send(r);
            }
        });
        Self {
            tx: Some(tx),
            join: Some(join),
            rank,
            wait_deadline,
        }
    }

    /// Enqueues a batch row exchange under `op` (assigned by the main
    /// thread's `begin_op`, so keys agree across ranks).
    pub(crate) fn submit_exchange(
        &self,
        op: u64,
        plan: GatherPlan,
    ) -> Result<Pending, RuntimeError> {
        let (reply, rx) = channel();
        let tx = self.tx.as_ref().expect("open until drop");
        tx.send(Job { op, plan, reply })
            .map_err(|_| RuntimeError::Protocol {
                rank: self.rank,
                detail: "overlap worker is gone".to_string(),
            })?;
        Ok(Pending {
            rx,
            rank: self.rank,
            deadline: self.wait_deadline,
        })
    }
}

impl Drop for OverlapWorker {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(join) = self.join.take() {
            // Terminates: every fabric wait the worker can be in is
            // deadline- and poison-bounded.
            let _ = join.join();
        }
    }
}
