//! The per-device runtime: graph allgather, backward scatter and model
//! allreduce over the shared fabric.
//!
//! Every operation moves its messages through one executor, the chunked
//! dependency walk of [`crate::pipeline`]. The uncompiled `*_reference`
//! table walkers are separate code on purpose: they are the independent
//! oracle the compiled path is tested against, and the only code outside
//! that module that calls the fabric's send and receive.
//!
//! Every collective returns `Result<_, RuntimeError>`: a protocol
//! violation, an injected crash, a poisoned fabric or a missed deadline
//! surfaces as a typed error on every rank instead of a hang or an
//! opaque panic. [`run_cluster`] catches per-device panics and folds all
//! failures into one [`ClusterError`] naming the originating rank.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use dgcl_graph::VertexId;
use dgcl_partition::relation::LocalGraph;
use dgcl_plan::tuples::SendRecvTables;
use dgcl_tensor::Matrix;

use crate::collectives::{AllreduceAlgo, CollectiveEngine, GroupSpec};
use crate::comm_info::CommInfo;
use crate::error::{ClusterError, ClusterFailure, RuntimeError};
use crate::fabric::{expect_payload, Fabric, FabricConfig, MsgKey};
use crate::pipeline::{self, ChunkIo, PipelineSchedule, PipelineScratch};
use crate::sampling::GatherPlan;

/// A device's view of the cluster: its rank, its local graph and the
/// collective operations of the paper's client API.
pub struct DeviceHandle<'a> {
    /// This device's rank.
    pub rank: usize,
    info: &'a CommInfo,
    fabric: &'a Fabric,
    op_counter: Cell<u64>,
    scratch: RefCell<PipelineScratch>,
    engine: RefCell<CollectiveEngine>,
}

/// Per-(stage, substage) execution order of a device's table entries:
/// sends are posted first, receives drained second, so no cycle of
/// blocking receives can form within a stage.
fn stage_keys(tables: &SendRecvTables, rank: usize) -> Vec<(usize, usize)> {
    let mut keys: Vec<(usize, usize)> = tables.per_device[rank]
        .iter()
        .map(|io| (io.stage, io.substage))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

impl<'a> DeviceHandle<'a> {
    /// The device's re-indexed local graph.
    pub fn local_graph(&self) -> &'a LocalGraph {
        self.info.pg.local_graph(self.rank)
    }

    /// The shared communication metadata.
    pub fn comm_info(&self) -> &'a CommInfo {
        self.info
    }

    /// The fabric this device communicates over.
    pub fn fabric(&self) -> &Fabric {
        self.fabric
    }

    /// Enters the next collective: bumps the operation counter, fires any
    /// injected crash scheduled for this rank, and refuses to start on a
    /// poisoned fabric.
    pub(crate) fn begin_op(&self) -> Result<u64, RuntimeError> {
        let op = self.op_counter.get() + 1;
        self.op_counter.set(op);
        if let Some(at_op) = self.fabric.config().faults.crash_at(self.rank) {
            if op >= at_op {
                let err = RuntimeError::InjectedCrash {
                    rank: self.rank,
                    at_op,
                };
                self.fabric
                    .poison(self.rank, ClusterFailure::Error(err.clone()));
                return Err(err);
            }
        }
        self.fabric.check_poison()?;
        Ok(op)
    }

    /// Fires any [`crate::fault::FaultEvent::CrashAtEpoch`] scheduled for
    /// this rank. The trainer calls this at every epoch boundary — the
    /// fabric's op counter cannot see epochs, only the epoch loop can.
    /// Mirrors [`DeviceHandle::begin_op`]: the crash poisons the fabric
    /// (so peers unwind promptly) and surfaces as a typed error.
    pub(crate) fn check_epoch_fault(&self, epoch: usize) -> Result<(), RuntimeError> {
        if let Some(at_epoch) = self.fabric.config().faults.crash_epoch(self.rank) {
            if epoch >= at_epoch {
                let err = RuntimeError::InjectedEpochCrash {
                    rank: self.rank,
                    epoch: at_epoch,
                };
                self.fabric
                    .poison(self.rank, ClusterFailure::Error(err.clone()));
                return Err(err);
            }
        }
        Ok(())
    }

    /// Poisons the fabric with any error the device itself originated, so
    /// peers blocked on this rank unwind instead of waiting out their
    /// deadline. Poison-propagation errors pass through untouched (the
    /// origin already recorded itself).
    pub(crate) fn poison_on_err<T>(
        &self,
        result: Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        if let Err(e) = &result {
            if !matches!(e, RuntimeError::Poisoned { .. }) {
                self.fabric
                    .poison(self.rank, ClusterFailure::Error(e.clone()));
            }
        }
        result
    }

    /// Runs one collective: enters the next op
    /// ([`DeviceHandle::begin_op`]), hands its id to `body`, and poisons
    /// the fabric with any error this device originated. Every rank runs
    /// the same program on its one thread, so op ids — and the message
    /// keys that embed them — agree across ranks.
    pub(crate) fn with_op<T>(
        &self,
        body: impl FnOnce(u64) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let r = self.begin_op().and_then(body);
        self.poison_on_err(r)
    }

    /// The paper's `graph_allgather`: sends the embeddings other devices
    /// need, receives (and forwards) the embeddings of this device's
    /// remote vertices, and returns the full visible embedding matrix
    /// (local rows first, then remote — the local-id layout of
    /// [`LocalGraph`]).
    ///
    /// Runs the chunk-pipelined executor (see [`crate::pipeline`]): each
    /// (stage, substage, peer) payload is split into `chunk_rows` chunks
    /// that stream through relays, driven by the precompiled dependency
    /// list instead of a stage barrier. Bitwise-identical to
    /// [`DeviceHandle::graph_allgather_reference`].
    ///
    /// Blocking and synchronous: returns only when every chunk of the
    /// plan has completed on this device.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; an error originated here also poisons the
    /// fabric so peers unwind.
    ///
    /// # Panics
    ///
    /// Panics if `local` does not have exactly `num_local` rows (caller
    /// API misuse, not a cluster condition).
    pub fn graph_allgather(&self, local: &Matrix) -> Result<Matrix, RuntimeError> {
        let (lg, sched) = (self.local_graph(), &self.info.forward_schedules[self.rank]);
        let (num_local, num_total) = (lg.num_local, lg.num_total());
        assert_eq!(local.rows(), num_local, "expected local rows only");
        let cols = local.cols();
        let mut out = Matrix::zeros(num_total, cols);
        out.as_mut_slice()[..num_local * cols].copy_from_slice(local.as_slice());
        // Rows this device relays without consuming: the row references
        // past `num_total` (`DeviceSchedule::forward`).
        let mut relay = self.fabric.checkout(sched.scratch_rows * cols);
        relay.resize(sched.scratch_rows * cols, 0.0);
        let pipe = &self.info.forward_pipelines[self.rank];
        self.execute(pipe, cols, |req| match req {
            ChunkIo::Pack {
                entry,
                rows,
                payload,
            } => {
                for &r in &sched.send_refs[entry as usize][rows] {
                    let r = r as usize;
                    let row = if r < num_total {
                        out.row(r)
                    } else {
                        let start = (r - num_total) * cols;
                        &relay[start..start + cols]
                    };
                    payload.extend_from_slice(row);
                }
            }
            ChunkIo::Apply {
                entry,
                rows,
                payload,
            } => {
                for (i, &r) in sched.recv_refs[entry as usize][rows].iter().enumerate() {
                    let row = &payload[i * cols..(i + 1) * cols];
                    let r = r as usize;
                    if r < num_total {
                        out.set_row(r, row);
                    } else {
                        let start = (r - num_total) * cols;
                        relay[start..start + cols].copy_from_slice(row);
                    }
                }
            }
        })?;
        self.fabric.recycle(relay);
        Ok(out)
    }

    /// Exactly [`DeviceHandle::graph_allgather`], under the name the
    /// `e2e` benchmark's frozen traced body calls. Nothing else should.
    ///
    /// # Errors
    ///
    /// See [`DeviceHandle::graph_allgather`].
    pub fn graph_allgather_barriered(&self, local: &Matrix) -> Result<Matrix, RuntimeError> {
        self.graph_allgather(local)
    }

    /// The uncompiled table-walking `graph_allgather` this runtime
    /// shipped with: re-filters the tables per stage and resolves every
    /// vertex id per operation. Kept as the reference implementation the
    /// compiled path is property-tested (and benchmarked) against.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    ///
    /// # Panics
    ///
    /// Panics if `local` does not have exactly `num_local` rows.
    pub fn graph_allgather_reference(&self, local: &Matrix) -> Result<Matrix, RuntimeError> {
        self.poison_on_err(self.graph_allgather_reference_inner(local))
    }

    fn graph_allgather_reference_inner(&self, local: &Matrix) -> Result<Matrix, RuntimeError> {
        let lg = self.local_graph();
        assert_eq!(local.rows(), lg.num_local, "expected local rows only");
        let cols = local.cols();
        let op = self.begin_op()?;
        let mut out = Matrix::zeros(lg.num_total(), cols);
        for r in 0..lg.num_local {
            out.set_row(r, local.row(r));
        }
        // Embeddings this device relays without consuming.
        let mut relay: HashMap<VertexId, Vec<f32>> = HashMap::new();
        let tables = &self.info.forward_tables;
        for (stage, substage) in stage_keys(tables, self.rank) {
            let key: MsgKey = (op, stage as u32, substage as u32, 0);
            let ios: Vec<_> = tables.per_device[self.rank]
                .iter()
                .filter(|io| io.stage == stage && io.substage == substage)
                .collect();
            for io in &ios {
                if io.send.is_empty() {
                    continue;
                }
                let mut payload = Vec::with_capacity(io.send.len() * cols);
                for &v in &io.send {
                    match lg.local_id(v) {
                        Some(li) => payload.extend_from_slice(out.row(li)),
                        None => {
                            let row = relay.get(&v).ok_or_else(|| RuntimeError::Protocol {
                                rank: self.rank,
                                detail: format!("device {} lacks vertex {v} to forward", self.rank),
                            })?;
                            payload.extend_from_slice(row);
                        }
                    }
                }
                self.fabric.send(self.rank, io.peer, key, payload)?;
            }
            for io in &ios {
                if io.recv.is_empty() {
                    continue;
                }
                let payload = self.fabric.recv(io.peer, self.rank, key)?;
                expect_payload(self.rank, payload.len(), io.recv.len() * cols, key)?;
                for (i, &v) in io.recv.iter().enumerate() {
                    let row = &payload[i * cols..(i + 1) * cols];
                    match lg.local_id(v) {
                        Some(li) => out.set_row(li, row),
                        None => {
                            relay.insert(v, row.to_vec());
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// The backward counterpart of [`DeviceHandle::graph_allgather`]:
    /// takes the gradient with respect to the full visible embedding
    /// matrix, routes every remote vertex's gradient back along the
    /// communication tree (accumulating contributions at each hop), and
    /// returns the gradient for the local rows with all remote
    /// contributions folded in.
    ///
    /// Runs the chunk-pipelined backward schedule; see
    /// [`DeviceHandle::graph_allgather`] for the pipelining contract.
    /// Bitwise-identical to [`DeviceHandle::scatter_backward_reference`].
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    ///
    /// # Panics
    ///
    /// Panics if `grad_full` does not have `num_total` rows.
    pub fn scatter_backward(&self, grad_full: &Matrix) -> Result<Matrix, RuntimeError> {
        let (lg, sched) = (self.local_graph(), &self.info.backward_schedules[self.rank]);
        let (num_local, num_total) = (lg.num_local, lg.num_total());
        assert_eq!(grad_full.rows(), num_total, "expected full rows");
        let cols = grad_full.cols();
        let mut grad_local = grad_full.head_rows(num_local);
        // Accumulator scratch (`DeviceSchedule::backward`): `num_remote`
        // rows seeded with this device's own consumption gradient, then
        // relay rows (and the optional always-zero row) from zero.
        let mut acc = self.fabric.checkout(sched.scratch_rows * cols);
        acc.resize(sched.scratch_rows * cols, 0.0);
        let seeded = (num_total - num_local) * cols;
        acc[..seeded].copy_from_slice(&grad_full.as_slice()[num_local * cols..]);
        let pipe = &self.info.backward_pipelines[self.rank];
        self.execute(pipe, cols, |req| match req {
            ChunkIo::Pack {
                entry,
                rows,
                payload,
            } => {
                for &r in &sched.send_refs[entry as usize][rows] {
                    let r = r as usize;
                    let row = if r < num_local {
                        grad_local.row(r)
                    } else {
                        let start = (r - num_local) * cols;
                        &acc[start..start + cols]
                    };
                    payload.extend_from_slice(row);
                }
            }
            ChunkIo::Apply {
                entry,
                rows,
                payload,
            } => {
                for (i, &r) in sched.recv_refs[entry as usize][rows].iter().enumerate() {
                    let row = &payload[i * cols..(i + 1) * cols];
                    let r = r as usize;
                    let dst = if r < num_local {
                        &mut grad_local.row_mut(r)[..]
                    } else {
                        let start = (r - num_local) * cols;
                        &mut acc[start..start + cols]
                    };
                    for (g, &x) in dst.iter_mut().zip(row) {
                        *g += x;
                    }
                }
            }
        })?;
        self.fabric.recycle(acc);
        Ok(grad_local)
    }

    /// Exactly [`DeviceHandle::scatter_backward`], under the name the
    /// `e2e` benchmark's frozen traced body calls. Nothing else should.
    ///
    /// # Errors
    ///
    /// See [`DeviceHandle::scatter_backward`].
    pub fn scatter_backward_barriered(&self, grad_full: &Matrix) -> Result<Matrix, RuntimeError> {
        self.scatter_backward(grad_full)
    }

    /// The uncompiled table-walking backward pass (see
    /// [`DeviceHandle::graph_allgather_reference`]).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    ///
    /// # Panics
    ///
    /// Panics if `grad_full` does not have `num_total` rows.
    pub fn scatter_backward_reference(&self, grad_full: &Matrix) -> Result<Matrix, RuntimeError> {
        self.poison_on_err(self.scatter_backward_reference_inner(grad_full))
    }

    fn scatter_backward_reference_inner(&self, grad_full: &Matrix) -> Result<Matrix, RuntimeError> {
        let lg = self.local_graph();
        assert_eq!(grad_full.rows(), lg.num_total(), "expected full rows");
        let cols = grad_full.cols();
        let op = self.begin_op()?;
        let mut grad_local = grad_full.head_rows(lg.num_local);
        // Accumulators for non-owned vertices: seeded with this device's
        // own consumption gradient for its remote vertices; relayed
        // vertices accumulate from zero.
        let mut acc: HashMap<VertexId, Vec<f32>> = HashMap::new();
        for li in lg.num_local..lg.num_total() {
            acc.insert(lg.global_ids[li], grad_full.row(li).to_vec());
        }
        let tables = &self.info.backward_tables;
        for (stage, substage) in stage_keys(tables, self.rank) {
            let key: MsgKey = (op, stage as u32, substage as u32, 0);
            let ios: Vec<_> = tables.per_device[self.rank]
                .iter()
                .filter(|io| io.stage == stage && io.substage == substage)
                .collect();
            for io in &ios {
                if io.send.is_empty() {
                    continue;
                }
                let mut payload = Vec::with_capacity(io.send.len() * cols);
                for &v in &io.send {
                    match acc.get(&v) {
                        Some(row) => payload.extend_from_slice(row),
                        // A pure relay that received nothing yet
                        // contributes zeros.
                        None => payload.extend(std::iter::repeat_n(0.0, cols)),
                    }
                }
                self.fabric.send(self.rank, io.peer, key, payload)?;
            }
            for io in &ios {
                if io.recv.is_empty() {
                    continue;
                }
                let payload = self.fabric.recv(io.peer, self.rank, key)?;
                expect_payload(self.rank, payload.len(), io.recv.len() * cols, key)?;
                for (i, &v) in io.recv.iter().enumerate() {
                    let row = &payload[i * cols..(i + 1) * cols];
                    match lg.local_id(v) {
                        Some(li) if li < lg.num_local => {
                            for (g, &x) in grad_local.row_mut(li).iter_mut().zip(row) {
                                *g += x;
                            }
                        }
                        _ => {
                            let entry = acc.entry(v).or_insert_with(|| vec![0.0; cols]);
                            for (g, &x) in entry.iter_mut().zip(row) {
                                *g += x;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_local)
    }

    /// Element-wise sum of `mats` across all devices (model-gradient
    /// synchronisation). Every device receives the identical result.
    ///
    /// The algorithm comes from the fabric's
    /// [`crate::collectives::AllreducePolicy`] — the flat allreduce
    /// (gather into rank 0, broadcast back) by default, or a
    /// cost-model-picked flat / ring / halving-doubling schedule. All
    /// algorithms are bitwise identical, so the policy affects
    /// wall-clock only. An empty call is a barrier: it returns once
    /// every device has entered it.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    pub fn allreduce(&self, mats: Vec<Matrix>) -> Result<Vec<Matrix>, RuntimeError> {
        let elems: usize = mats.iter().map(Matrix::len).sum();
        let algo = self.fabric.config().allreduce.pick(4 * elems as u64);
        self.allreduce_with(algo, mats)
    }

    /// [`DeviceHandle::allreduce`] with an explicit algorithm,
    /// bypassing the fabric's policy. Every rank must pass the same
    /// algorithm on the same call.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    pub fn allreduce_with(
        &self,
        algo: AllreduceAlgo,
        mats: Vec<Matrix>,
    ) -> Result<Vec<Matrix>, RuntimeError> {
        self.with_op(|op| {
            self.engine
                .borrow_mut()
                .allreduce(self.fabric, op, algo, mats)
        })
    }

    /// Broadcasts the matrix of the member at `root_pos` to every
    /// member of `group` (see [`CollectiveEngine::broadcast_group`]).
    /// Disjoint groups may run concurrently under the same op id; ranks
    /// outside every group must call [`DeviceHandle::align_op`] so the
    /// cluster-wide op counters stay in lockstep.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    ///
    /// # Panics
    ///
    /// Panics if this rank is not a member of `group`.
    pub fn broadcast_group(
        &self,
        group: GroupSpec,
        root_pos: usize,
        mat: Matrix,
    ) -> Result<Matrix, RuntimeError> {
        self.with_op(|op| {
            self.engine
                .borrow_mut()
                .broadcast_group(self.fabric, op, group, root_pos, mat)
        })
    }

    /// Bumps the op counter without communicating — the no-op a rank
    /// issues when its peers run a collective it takes no part in, so
    /// that a later cluster-wide collective finds every rank at the same
    /// op id.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised on entry (poison, injected crash).
    pub fn align_op(&self) -> Result<(), RuntimeError> {
        self.with_op(|_| Ok(()))
    }

    /// Assembles the value matrix of this rank's request list from the
    /// rows' owners: the mini-batch analogue of the graph allgather, the
    /// sampled trainer's one feature fetch per step.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`DeviceHandle::graph_allgather`].
    pub fn exchange_rows(&self, plan: &GatherPlan) -> Result<Matrix, RuntimeError> {
        self.with_op(|op| plan.execute(self.fabric, self.rank, op, &mut self.scratch.borrow_mut()))
    }

    /// Runs `pipe` as this device's next op on [`crate::pipeline`]'s
    /// executor, `cols` floats per row, `io` packing and applying rows.
    pub(crate) fn execute(
        &self,
        pipe: &PipelineSchedule,
        cols: usize,
        io: impl FnMut(ChunkIo<'_>),
    ) -> Result<(), RuntimeError> {
        self.with_op(|op| {
            let scratch = &mut self.scratch.borrow_mut();
            pipeline::execute(self.fabric, self.rank, op, pipe, cols, scratch, io)
        })
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `body` once per device on its own thread with a default-config
/// fabric and returns the results in rank order.
///
/// # Errors
///
/// [`ClusterError`] naming the first rank whose error or panic poisoned
/// the fabric, with the per-rank outcome of every device. No failure
/// mode hangs: peers of a dead device unwind via poison or deadline.
pub fn run_cluster<R, F>(info: &CommInfo, body: F) -> Result<Vec<R>, ClusterError>
where
    R: Send,
    F: Fn(DeviceHandle<'_>) -> Result<R, RuntimeError> + Sync,
{
    run_cluster_with(info, FabricConfig::default(), body)
}

/// [`run_cluster`] with an explicit fabric configuration (collective
/// deadline, recycle-pool caps, fault plan).
///
/// The rank threads share the process's cores, so this is the one place
/// that divides them: it reads the process value
/// [`dgcl_tensor::compute_threads`] once and gives each rank thread a
/// kernel budget of `max(1, that / num_devices)`
/// ([`dgcl_tensor::set_thread_budget`]). Every kernel a body runs asks
/// the pool for its worker count, so none spawns workers that time-slice
/// against the other ranks; results are bitwise the same at any budget.
///
/// # Errors
///
/// See [`run_cluster`].
pub fn run_cluster_with<R, F>(
    info: &CommInfo,
    config: FabricConfig,
    body: F,
) -> Result<Vec<R>, ClusterError>
where
    R: Send,
    F: Fn(DeviceHandle<'_>) -> Result<R, RuntimeError> + Sync,
{
    let deadline = config.collective_deadline;
    let budget = (dgcl_tensor::compute_threads() / info.num_devices()).max(1);
    let fabric = Fabric::with_config(info.num_devices(), config);
    let mut outcomes: Vec<Option<Result<R, ClusterFailure>>> =
        (0..info.num_devices()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for rank in 0..info.num_devices() {
            let (fabric, body) = (&fabric, &body);
            joins.push(scope.spawn(move || {
                dgcl_tensor::set_thread_budget(budget);
                let handle = DeviceHandle {
                    rank,
                    info,
                    fabric,
                    op_counter: Cell::new(0),
                    scratch: RefCell::new(PipelineScratch::default()),
                    engine: RefCell::new(CollectiveEngine::new(rank, info.num_devices())),
                };
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(handle)));
                let outcome = match caught {
                    Ok(Ok(r)) => Ok(r),
                    Ok(Err(e)) => {
                        // Normally already poisoned by the collective;
                        // first-wins makes re-poisoning harmless and
                        // covers errors the body constructed itself. A
                        // divergence reaches every rank at the same step,
                        // so poisoning it would only let a peer still
                        // draining that step's allreduce report the
                        // poison instead.
                        if !matches!(
                            e,
                            RuntimeError::Poisoned { .. } | RuntimeError::Diverged { .. }
                        ) {
                            fabric.poison(rank, ClusterFailure::Error(e.clone()));
                        }
                        Err(ClusterFailure::Error(e))
                    }
                    Err(payload) => {
                        let msg = panic_message(payload);
                        fabric.poison(rank, ClusterFailure::Panic(msg.clone()));
                        Err(ClusterFailure::Panic(msg))
                    }
                };
                (rank, outcome)
            }));
        }
        // In-order join is safe: every thread terminates — failures
        // poison the fabric, waking all waits, and every wait is
        // deadline-bounded besides.
        for join in joins {
            let (rank, outcome) = join.join().expect("device wrapper cannot panic");
            outcomes[rank] = Some(outcome);
        }
    });
    let outcomes: Vec<Result<R, ClusterFailure>> = outcomes
        .into_iter()
        .map(|o| o.expect("all ranks ran"))
        .collect();
    if outcomes.iter().all(Result::is_ok) {
        return Ok(outcomes
            .into_iter()
            .map(|o| match o {
                Ok(r) => r,
                Err(_) => unreachable!("checked all ok"),
            })
            .collect());
    }
    let per_rank: Vec<Option<ClusterFailure>> =
        outcomes.iter().map(|o| o.as_ref().err().cloned()).collect();
    // The poison record names the *first* failure; a rank that returned
    // Ok before the fabric was poisoned (then failed nothing) cannot be
    // in it, so fall back to the lowest failing rank if needed.
    let (rank, cause) = fabric.poison_info().unwrap_or_else(|| {
        outcomes
            .iter()
            .enumerate()
            .find_map(|(r, o)| o.as_ref().err().map(|e| (r, e.clone())))
            .expect("some rank failed")
    });
    Err(ClusterError {
        rank,
        cause,
        per_rank,
        deadline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::Dataset;
    use dgcl_tensor::{compute_threads, set_compute_threads, XavierInit};
    use dgcl_topology::Topology;

    fn setup() -> (dgcl_graph::CsrGraph, CommInfo) {
        let graph = Dataset::WikiTalk.generate(0.0006, 5);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        (graph, info)
    }

    #[test]
    fn each_rank_gets_its_share_of_the_process_threads() {
        // The process value is global: one reader-and-writer at a time.
        static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let (_, info) = setup();
        let devices = info.num_devices();
        let before = compute_threads();
        for global in [1, devices, 3 * devices] {
            set_compute_threads(global);
            let seen = run_cluster(&info, |_| Ok(compute_threads())).expect("healthy cluster");
            let share = (global / devices).max(1);
            assert_eq!(seen, vec![share; devices], "global {global}");
            assert_eq!(compute_threads(), global, "the caller keeps its value");
        }
        set_compute_threads(before);
    }

    #[test]
    fn allgather_delivers_every_remote_embedding() {
        let (graph, info) = setup();
        let n = graph.num_vertices();
        // Embedding of vertex v is [v, 2v] so delivery is checkable.
        let mut features = Matrix::zeros(n, 2);
        for v in 0..n {
            features.set_row(v, &[v as f32, 2.0 * v as f32]);
        }
        let per_device = info.dispatch_features(&features);
        let gathered = run_cluster(&info, |handle| {
            handle.graph_allgather(&per_device[handle.rank])
        })
        .expect("healthy cluster");
        for (d, full) in gathered.iter().enumerate() {
            let lg = info.pg.local_graph(d);
            for (li, &v) in lg.global_ids.iter().enumerate() {
                assert_eq!(
                    full.row(li),
                    &[v as f32, 2.0 * v as f32],
                    "device {d} row for vertex {v}"
                );
            }
        }
    }

    #[test]
    fn scatter_backward_accumulates_all_consumers() {
        let (_, info) = setup();
        // Each device contributes gradient 1.0 for every visible vertex;
        // the owner must end with 1 + (#remote consumers of v).
        let grads = run_cluster(&info, |handle| {
            let lg = handle.local_graph();
            let grad_full = Matrix::full(lg.num_total(), 1, 1.0);
            handle.scatter_backward(&grad_full)
        })
        .expect("healthy cluster");
        for (d, grad) in grads.iter().enumerate() {
            for (i, &v) in info.pg.local[d].iter().enumerate() {
                let consumers = (0..info.num_devices())
                    .filter(|&j| j != d && info.pg.remote[j].binary_search(&v).is_ok())
                    .count();
                let expect = 1.0 + consumers as f32;
                assert_eq!(
                    grad.row(i)[0],
                    expect,
                    "vertex {v} on device {d}: expected {expect}"
                );
            }
        }
    }

    #[test]
    fn allgather_then_scatter_is_adjoint() {
        // <gather(x), y> == <x, scatter(y)> summed across devices — the
        // defining property that makes distributed backward exact.
        let (graph, info) = setup();
        let n = graph.num_vertices();
        let mut init = XavierInit::new(3);
        let x = init.features(n, 3);
        let per_device_x = info.dispatch_features(&x);
        let results = run_cluster(&info, |handle| {
            let lg = handle.local_graph();
            let gathered = handle.graph_allgather(&per_device_x[handle.rank])?;
            // y: deterministic pseudo-gradient over the full visible set.
            let mut y = Matrix::zeros(lg.num_total(), 3);
            for (li, &v) in lg.global_ids.iter().enumerate() {
                for c in 0..3 {
                    y[(li, c)] = ((v as usize * 31 + c * 7 + handle.rank) % 11) as f32 * 0.1;
                }
            }
            let lhs: f32 = gathered.hadamard(&y).sum();
            let scattered = handle.scatter_backward(&y)?;
            Ok((lhs, scattered))
        })
        .expect("healthy cluster");
        let lhs_total: f32 = results.iter().map(|(l, _)| *l).sum();
        let mut rhs_total = 0.0f32;
        for (d, (_, scattered)) in results.iter().enumerate() {
            for (i, &v) in info.pg.local[d].iter().enumerate() {
                for c in 0..3 {
                    rhs_total += x[(v as usize, c)] * scattered[(i, c)];
                }
            }
        }
        assert!(
            (lhs_total - rhs_total).abs() < 1e-2 * lhs_total.abs().max(1.0),
            "adjoint mismatch: {lhs_total} vs {rhs_total}"
        );
    }

    #[test]
    fn compiled_collectives_match_reference_bitwise() {
        let (graph, info) = setup();
        let n = graph.num_vertices();
        let mut init = XavierInit::new(11);
        let x = init.features(n, 4);
        let per_device = info.dispatch_features(&x);
        let ok = run_cluster(&info, |handle| {
            let lg = handle.local_graph();
            let fast = handle.graph_allgather(&per_device[handle.rank])?;
            let slow = handle.graph_allgather_reference(&per_device[handle.rank])?;
            assert_eq!(fast, slow, "allgather parity on rank {}", handle.rank);
            let mut grad = Matrix::zeros(lg.num_total(), 4);
            for (li, &v) in lg.global_ids.iter().enumerate() {
                for c in 0..4 {
                    grad[(li, c)] = ((v as usize * 13 + c * 5 + handle.rank) % 7) as f32 * 0.25;
                }
            }
            let fast_b = handle.scatter_backward(&grad)?;
            let slow_b = handle.scatter_backward_reference(&grad)?;
            assert_eq!(fast_b, slow_b, "backward parity on rank {}", handle.rank);
            Ok(true)
        })
        .expect("healthy cluster");
        assert_eq!(ok, vec![true; info.num_devices()]);
    }

    #[test]
    fn allgather_works_repeatedly() {
        let (_, info) = setup();
        let counts = run_cluster(&info, |handle| {
            let lg = handle.local_graph();
            let local = Matrix::full(lg.num_local, 1, handle.rank as f32);
            for _ in 0..3 {
                let out = handle.graph_allgather(&local)?;
                assert_eq!(out.rows(), lg.num_total());
            }
            Ok(3)
        })
        .expect("healthy cluster");
        assert_eq!(counts, vec![3; info.num_devices()]);
    }

    #[test]
    fn straggler_devices_do_not_corrupt_results() {
        // Failure injection: devices pause for rank-dependent times
        // between operations. The keyed mailboxes must tolerate
        // arbitrary skew — a message posted before its receiver enters
        // the op waits under its key, and a straggler blocks only the
        // peers that receive from it, never correctness.
        let (graph, info) = setup();
        let n = graph.num_vertices();
        let mut features = Matrix::zeros(n, 2);
        for v in 0..n {
            features.set_row(v, &[v as f32, -(v as f32)]);
        }
        let per_device = info.dispatch_features(&features);
        let gathered = run_cluster(&info, |handle| {
            for round in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(
                    (handle.rank as u64 * 7 + round) % 11,
                ));
                let out = handle.graph_allgather(&per_device[handle.rank])?;
                std::thread::sleep(std::time::Duration::from_millis(
                    (11 - handle.rank as u64) % 5,
                ));
                let grads = handle.scatter_backward(&out)?;
                assert_eq!(grads.rows(), handle.local_graph().num_local);
            }
            handle.graph_allgather(&per_device[handle.rank])
        })
        .expect("healthy cluster");
        for (d, full) in gathered.iter().enumerate() {
            let lg = info.pg.local_graph(d);
            for (li, &v) in lg.global_ids.iter().enumerate() {
                assert_eq!(full.row(li), &[v as f32, -(v as f32)], "device {d}");
            }
        }
    }

    #[test]
    fn allgather_on_16_gpus() {
        let graph = Dataset::WikiTalk.generate(0.001, 9);
        let info = build_comm_info(&graph, Topology::dgx1_pair_ib(), BuildOptions::default());
        let n = graph.num_vertices();
        let mut features = Matrix::zeros(n, 1);
        for v in 0..n {
            features.set_row(v, &[v as f32]);
        }
        let per_device = info.dispatch_features(&features);
        let gathered = run_cluster(&info, |handle| {
            handle.graph_allgather(&per_device[handle.rank])
        })
        .expect("healthy cluster");
        for (d, full) in gathered.iter().enumerate() {
            let lg = info.pg.local_graph(d);
            for (li, &v) in lg.global_ids.iter().enumerate() {
                assert_eq!(full.row(li)[0], v as f32, "device {d} vertex {v}");
            }
        }
    }

    #[test]
    fn body_error_fails_the_whole_cluster() {
        let (_, info) = setup();
        let err = run_cluster(&info, |handle| {
            if handle.rank == 1 {
                return Err(RuntimeError::Protocol {
                    rank: 1,
                    detail: "synthetic failure".to_string(),
                });
            }
            handle.allreduce(Vec::new())?;
            Ok(())
        })
        .expect_err("rank 1 fails");
        assert_eq!(err.rank, 1);
        assert!(
            matches!(
                err.cause,
                ClusterFailure::Error(RuntimeError::Protocol { rank: 1, .. })
            ),
            "{err}"
        );
        assert!(err.per_rank[1].is_some(), "rank 1 recorded as failed");
        // Peers were blocked in allreduce and unwound via poison.
        for (r, outcome) in err.per_rank.iter().enumerate() {
            if r != 1 {
                assert!(
                    matches!(
                        outcome,
                        Some(ClusterFailure::Error(RuntimeError::Poisoned {
                            origin: 1,
                            ..
                        }))
                    ),
                    "rank {r}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn injected_crash_surfaces_on_every_rank() {
        let (_, info) = setup();
        let cfg = FabricConfig {
            faults: crate::fault::FaultPlan::crash(2, 1),
            ..FabricConfig::default()
        };
        let err = run_cluster_with(&info, cfg, |handle| {
            let first = handle.allreduce(vec![Matrix::full(1, 1, 1.0)]);
            if handle.rank != 2 {
                // A survivor's retry after the poison fails again and
                // completes nothing.
                let retry = handle.allreduce(vec![Matrix::full(1, 1, 1.0)]);
                assert!(
                    matches!(retry, Err(RuntimeError::Poisoned { origin: 2, .. })),
                    "rank {}: {retry:?}",
                    handle.rank
                );
            }
            first
        })
        .expect_err("rank 2 crashes");
        assert_eq!(err.rank, 2);
        assert!(
            matches!(
                err.cause,
                ClusterFailure::Error(RuntimeError::InjectedCrash { rank: 2, at_op: 1 })
            ),
            "{err}"
        );
        for (r, outcome) in err.per_rank.iter().enumerate() {
            if r != 2 {
                assert!(
                    matches!(
                        outcome,
                        Some(ClusterFailure::Error(RuntimeError::Poisoned {
                            origin: 2,
                            ..
                        }))
                    ),
                    "rank {r}: {outcome:?}"
                );
            }
        }
    }
}
