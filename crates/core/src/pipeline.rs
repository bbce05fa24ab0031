//! Chunk-pipelined execution of the compiled device schedules: the one
//! executor every planned gather / scatter and every compiled collective
//! of the zoo runs on.
//!
//! A stage barrier moves each `(stage, substage, peer)` payload as one
//! message and blocks on an entire stage before forwarding a single row —
//! link time and relay time add up. NCCL-style collectives get their
//! bandwidth from the missing ingredient: payloads split into fixed-size
//! chunks that stream through relays, so a relay forwards chunk `k` the
//! moment it arrives while chunk `k + 1` is still in flight. A schedule
//! compiled with `chunk_rows = usize::MAX` sends one message per entry,
//! the barrier's granularity, without the barrier.
//!
//! This module compiles a [`DeviceSchedule`] into a [`PipelineSchedule`]:
//! a flat list of per-chunk send/receive [`ChunkAction`]s plus a packed
//! dependency list. Dependencies encode exactly the data hazards of the
//! stage order (the order the uncompiled `*_reference` table walkers of
//! [`crate::runtime`] run in):
//!
//! * a **send** depends on the last receive that wrote any of its rows
//!   (true dependency — a relay cannot forward a chunk before it holds
//!   it);
//! * a **receive** depends on the last write to any of its rows *and* on
//!   every send that read the row since (anti-dependency — backward
//!   receives accumulate in place, so a pending read must drain before
//!   the row changes).
//!
//! Everything else is unordered: the executor runs any action whose
//! dependencies are complete, polling receives with the non-blocking
//! [`Fabric::try_recv`]. Compilation happens once at `build_comm_info`
//! time; the hot path walks precompiled index ranges and cycles payload
//! buffers through the fabric pool, so steady-state execution stays
//! allocation-free.
//!
//! # Determinism
//!
//! Forward rows are written exactly once (single writer in the routing
//! tree) and every read depends on that writer, so values cannot depend
//! on arrival order. Backward rows accumulate, but writes to one row are
//! serialised by the writer chain and reads are pinned between the
//! writes they observed in the reference order by the anti-dependencies
//! — every payload and every output is bitwise identical to the
//! reference walkers, which the property suite asserts across chunk
//! sizes.
//!
//! # Deadlock freedom
//!
//! Dependencies always point to earlier actions in the compiled order
//! (the stage order), so the *first* incomplete action of a stuck
//! device is always dependency-ready; because sends are always
//! executable, it is a receive. Order all actions of all devices by
//! `(stage, substage, send-before-recv, chunk)`: a matching send
//! strictly precedes its receive in that order, so the globally minimal
//! blocked receive's payload has either been sent — it unblocks — or its
//! sender's own first incomplete action sits even earlier in the global
//! order, contradicting minimality. Some device therefore always makes
//! progress; and every blocking wait additionally honours the fabric's
//! poison state and collective deadline, so even a crashed peer cannot
//! hang the pipeline.

use std::ops::Range;

use dgcl_plan::tuples::StageIo;
use dgcl_tensor::Matrix;

use crate::error::{ClusterFailure, RuntimeError};
use crate::fabric::{expect_payload, Fabric, MsgKey};
use crate::schedule::DeviceSchedule;

/// Sentinel for "no writer yet" while compiling dependencies.
const NONE: u32 = u32::MAX;

/// What one pipeline action does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Pack a chunk of rows and post it to the peer.
    Send,
    /// Receive a chunk of rows from the peer and apply it.
    Recv,
}

/// One per-chunk action of a device's pipelined schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkAction {
    /// Send or receive.
    pub kind: ActionKind,
    /// Index into the device's table entries (and `send_refs`/`recv_refs`).
    pub entry: u32,
    /// Stage of the entry (redundant with the table, kept for key
    /// construction without an indirection).
    pub stage: u32,
    /// Sub-stage of the entry.
    pub substage: u32,
    /// Chunk index within the entry; the fourth [`MsgKey`] component.
    pub chunk: u32,
    /// Row range within the entry's ref list this chunk covers.
    pub rows: Range<u32>,
    /// Range into [`PipelineSchedule::deps`] listing the actions that
    /// must complete before this one may run.
    pub deps: Range<u32>,
}

/// A device's compiled chunk-pipelined schedule for one plan direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSchedule {
    /// Rows per chunk the schedule was compiled for.
    pub chunk_rows: usize,
    /// Actions in stage order (dependencies always point backwards).
    pub actions: Vec<ChunkAction>,
    /// Packed dependency lists, indexed by [`ChunkAction::deps`].
    pub deps: Vec<u32>,
}

/// Reusable executor state: one completion flag per action. Held per
/// device (and per collective engine) so repeated operations allocate
/// nothing.
#[derive(Debug, Default)]
pub struct PipelineScratch {
    completed: Vec<bool>,
}

/// One packing or application request the executor hands to the caller's
/// row closure. A single closure serves both so it can borrow the output
/// and scratch buffers mutably at once.
pub enum ChunkIo<'a> {
    /// Append the rows named by `refs` to `payload` (send path).
    Pack {
        /// Table entry the chunk belongs to, for callers whose packing
        /// semantics differ per entry (the collective zoo). The planner
        /// closures ignore it.
        entry: u32,
        /// Packed row references of the chunk.
        refs: &'a [u32],
        /// Destination payload, pre-sized to `refs.len() * cols`.
        payload: &'a mut Vec<f32>,
    },
    /// Apply `payload`'s rows to the rows named by `refs` (receive path).
    Apply {
        /// Table entry the chunk belongs to, for callers whose apply
        /// semantics differ per entry (overwrite vs accumulate).
        entry: u32,
        /// Packed row references of the chunk.
        refs: &'a [u32],
        /// The received rows, `refs.len() * cols` floats.
        payload: &'a [f32],
    },
}

/// Compiles `sched` into a chunk-pipelined schedule. `row_space` is the
/// number of distinct packed row references (forward: `num_total +
/// scratch_rows`; backward: `num_local + scratch_rows`); `chunk_rows`
/// of `usize::MAX` yields one chunk per table entry.
pub fn compile(sched: &DeviceSchedule, row_space: usize, chunk_rows: usize) -> PipelineSchedule {
    let chunk_rows = chunk_rows.max(1);
    let mut actions: Vec<ChunkAction> = Vec::new();
    let mut deps: Vec<u32> = Vec::new();
    // Per packed row: the action that last wrote it and the sends that
    // read it since (cleared by the next write).
    let mut last_writer: Vec<u32> = vec![NONE; row_space];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); row_space];
    let mut dep_scratch: Vec<u32> = Vec::new();
    for group in &sched.groups {
        // Sends before receives within a group, mirroring the reference
        // order (so a stuck device's first incomplete action is a recv).
        for idx in group.ios.clone() {
            let refs = &sched.send_refs[idx];
            for (chunk, lo) in (0..refs.len()).step_by(chunk_rows).enumerate() {
                let hi = (lo + chunk_rows).min(refs.len());
                let id = actions.len() as u32;
                dep_scratch.clear();
                for &r in &refs[lo..hi] {
                    let w = last_writer[r as usize];
                    if w != NONE && !dep_scratch.contains(&w) {
                        dep_scratch.push(w);
                    }
                    readers[r as usize].push(id);
                }
                let start = deps.len() as u32;
                deps.extend_from_slice(&dep_scratch);
                actions.push(ChunkAction {
                    kind: ActionKind::Send,
                    entry: idx as u32,
                    stage: group.stage as u32,
                    substage: group.substage as u32,
                    chunk: chunk as u32,
                    rows: lo as u32..hi as u32,
                    deps: start..deps.len() as u32,
                });
            }
        }
        for idx in group.ios.clone() {
            let refs = &sched.recv_refs[idx];
            for (chunk, lo) in (0..refs.len()).step_by(chunk_rows).enumerate() {
                let hi = (lo + chunk_rows).min(refs.len());
                let id = actions.len() as u32;
                dep_scratch.clear();
                for &r in &refs[lo..hi] {
                    let r = r as usize;
                    let w = last_writer[r];
                    if w != NONE && !dep_scratch.contains(&w) {
                        dep_scratch.push(w);
                    }
                    for &rd in &readers[r] {
                        if !dep_scratch.contains(&rd) {
                            dep_scratch.push(rd);
                        }
                    }
                    readers[r].clear();
                    last_writer[r] = id;
                }
                let start = deps.len() as u32;
                deps.extend_from_slice(&dep_scratch);
                actions.push(ChunkAction {
                    kind: ActionKind::Recv,
                    entry: idx as u32,
                    stage: group.stage as u32,
                    substage: group.substage as u32,
                    chunk: chunk as u32,
                    rows: lo as u32..hi as u32,
                    deps: start..deps.len() as u32,
                });
            }
        }
    }
    PipelineSchedule {
        chunk_rows,
        actions,
        deps,
    }
}

/// Whether every dependency of `a` has completed.
fn deps_done(pipe: &PipelineSchedule, a: &ChunkAction, completed: &[bool]) -> bool {
    pipe.deps[a.deps.start as usize..a.deps.end as usize]
        .iter()
        .all(|&d| completed[d as usize])
}

/// Runs one pipelined operation: executes every action of `pipe` in any
/// dependency-respecting order, calling `io` to pack and apply chunk
/// rows. `ios` supplies the peer of each table entry.
///
/// # Errors
///
/// Any [`RuntimeError`]. The caller is responsible for poisoning the
/// fabric on errors it originated (the runtime's `poison_on_err`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<F>(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    sched: &DeviceSchedule,
    pipe: &PipelineSchedule,
    ios: &[StageIo],
    cols: usize,
    scratch: &mut PipelineScratch,
    mut io: F,
) -> Result<(), RuntimeError>
where
    F: FnMut(ChunkIo<'_>),
{
    let n = pipe.actions.len();
    scratch.completed.clear();
    scratch.completed.resize(n, false);
    let mut remaining = n;
    let mut first_incomplete = 0usize;
    let crash_mid = fabric
        .config()
        .faults
        .crash_mid(rank)
        .filter(|&(at_op, _)| op >= at_op);
    let mut executed = 0usize;
    let maybe_crash = |executed: usize| -> Result<(), RuntimeError> {
        if let Some((at_op, after)) = crash_mid {
            if executed >= after {
                let err = RuntimeError::InjectedCrash { rank, at_op };
                fabric.poison(rank, ClusterFailure::Error(err.clone()));
                return Err(err);
            }
        }
        Ok(())
    };
    // One closure for both the polled and the blocking receive path.
    let apply = |io: &mut F, a: &ChunkAction, payload: Vec<f32>| -> Result<(), RuntimeError> {
        let refs = &sched.recv_refs[a.entry as usize][a.rows.start as usize..a.rows.end as usize];
        let key: MsgKey = (op, a.stage, a.substage, a.chunk);
        expect_payload(rank, payload.len(), refs.len() * cols, key)?;
        io(ChunkIo::Apply {
            entry: a.entry,
            refs,
            payload: &payload,
        });
        fabric.recycle(payload);
        Ok(())
    };
    while remaining > 0 {
        let mut progressed = false;
        for i in first_incomplete..n {
            if scratch.completed[i] {
                continue;
            }
            let a = &pipe.actions[i];
            if !deps_done(pipe, a, &scratch.completed) {
                continue;
            }
            let key: MsgKey = (op, a.stage, a.substage, a.chunk);
            let peer = ios[a.entry as usize].peer;
            match a.kind {
                ActionKind::Send => {
                    maybe_crash(executed)?;
                    // Cheap after the first chunk: the flag is monotonic.
                    fabric.wait_ready(peer, op, rank)?;
                    let refs = &sched.send_refs[a.entry as usize]
                        [a.rows.start as usize..a.rows.end as usize];
                    let mut payload = fabric.checkout(refs.len() * cols);
                    io(ChunkIo::Pack {
                        entry: a.entry,
                        refs,
                        payload: &mut payload,
                    });
                    fabric.send(rank, peer, key, payload)?;
                }
                ActionKind::Recv => {
                    let Some(payload) = fabric.try_recv(peer, rank, key)? else {
                        continue;
                    };
                    maybe_crash(executed)?;
                    apply(&mut io, a, payload)?;
                }
            }
            scratch.completed[i] = true;
            remaining -= 1;
            executed += 1;
            progressed = true;
        }
        while first_incomplete < n && scratch.completed[first_incomplete] {
            first_incomplete += 1;
        }
        if remaining > 0 && !progressed {
            // Nothing was deliverable: block on the earliest incomplete
            // action. Its dependencies are all earlier, hence complete;
            // an executable send would have run in the scan above, so it
            // must be a receive (see the deadlock-freedom argument).
            let a = &pipe.actions[first_incomplete];
            debug_assert!(deps_done(pipe, a, &scratch.completed));
            if a.kind != ActionKind::Recv {
                return Err(RuntimeError::Protocol {
                    rank,
                    detail: format!(
                        "pipeline stalled on send action {first_incomplete} ({:?})",
                        (op, a.stage, a.substage, a.chunk)
                    ),
                });
            }
            let key: MsgKey = (op, a.stage, a.substage, a.chunk);
            let peer = ios[a.entry as usize].peer;
            // Deadline- and poison-bounded, like every fabric wait.
            let payload = fabric.recv(peer, rank, key)?;
            maybe_crash(executed)?;
            apply(&mut io, a, payload)?;
            scratch.completed[first_incomplete] = true;
            remaining -= 1;
            executed += 1;
        }
    }
    Ok(())
}

/// The compiled `graph_allgather`: the forward (overwrite)
/// row-reference encoding of [`DeviceSchedule::forward`], moved by
/// [`execute`] over `pipe`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_allgather(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    sched: &DeviceSchedule,
    pipe: &PipelineSchedule,
    ios: &[StageIo],
    num_local: usize,
    num_total: usize,
    local: &Matrix,
    scratch: &mut PipelineScratch,
) -> Result<Matrix, RuntimeError> {
    assert_eq!(local.rows(), num_local, "expected local rows only");
    let cols = local.cols();
    let mut out = Matrix::zeros(num_total, cols);
    out.as_mut_slice()[..num_local * cols].copy_from_slice(local.as_slice());
    // Rows this device relays without consuming.
    let mut relay = fabric.checkout(sched.scratch_rows * cols);
    relay.resize(sched.scratch_rows * cols, 0.0);
    execute(
        fabric,
        rank,
        op,
        sched,
        pipe,
        ios,
        cols,
        scratch,
        |req| match req {
            ChunkIo::Pack { refs, payload, .. } => {
                for &r in refs {
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
            ChunkIo::Apply { refs, payload, .. } => {
                for (i, &r) in refs.iter().enumerate() {
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
        },
    )?;
    fabric.recycle(relay);
    Ok(out)
}

/// The compiled `scatter_backward`: the backward (accumulate)
/// row-reference encoding of [`DeviceSchedule::backward`], moved by
/// [`execute`] over `pipe`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_scatter(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    sched: &DeviceSchedule,
    pipe: &PipelineSchedule,
    ios: &[StageIo],
    num_local: usize,
    num_total: usize,
    grad_full: &Matrix,
    scratch: &mut PipelineScratch,
) -> Result<Matrix, RuntimeError> {
    assert_eq!(grad_full.rows(), num_total, "expected full rows");
    let cols = grad_full.cols();
    let mut grad_local = grad_full.head_rows(num_local);
    // Accumulator scratch: `num_remote` rows seeded with this device's
    // own consumption gradient, then relay rows (and the optional
    // always-zero row) from zero.
    let mut acc = fabric.checkout(sched.scratch_rows * cols);
    acc.resize(sched.scratch_rows * cols, 0.0);
    let seeded = (num_total - num_local) * cols;
    acc[..seeded].copy_from_slice(&grad_full.as_slice()[num_local * cols..]);
    execute(
        fabric,
        rank,
        op,
        sched,
        pipe,
        ios,
        cols,
        scratch,
        |req| match req {
            ChunkIo::Pack { refs, payload, .. } => {
                for &r in refs {
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
            ChunkIo::Apply { refs, payload, .. } => {
                for (i, &r) in refs.iter().enumerate() {
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
        },
    )?;
    fabric.recycle(acc);
    Ok(grad_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::Dataset;
    use dgcl_topology::Topology;

    fn info() -> crate::comm_info::CommInfo {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let opts = BuildOptions {
            chunk_rows: 4,
            ..BuildOptions::default()
        };
        build_comm_info(&graph, Topology::fig6(), opts)
    }

    #[test]
    fn chunks_cover_every_entry_row_in_order() {
        let info = info();
        for rank in 0..info.num_devices() {
            for (sched, pipe) in [
                (&info.forward_schedules[rank], &info.forward_pipelines[rank]),
                (
                    &info.backward_schedules[rank],
                    &info.backward_pipelines[rank],
                ),
            ] {
                // Per (entry, kind): chunks are contiguous, in order, and
                // cover exactly the entry's ref list.
                let mut covered_send = vec![0u32; sched.send_refs.len()];
                let mut covered_recv = vec![0u32; sched.recv_refs.len()];
                for a in &pipe.actions {
                    let (covered, refs) = match a.kind {
                        ActionKind::Send => (&mut covered_send, &sched.send_refs[a.entry as usize]),
                        ActionKind::Recv => (&mut covered_recv, &sched.recv_refs[a.entry as usize]),
                    };
                    assert_eq!(a.rows.start, covered[a.entry as usize], "contiguous chunks");
                    assert!(a.rows.end as usize <= refs.len());
                    assert!(a.rows.end > a.rows.start, "no empty chunks");
                    assert!(
                        (a.rows.end - a.rows.start) as usize <= pipe.chunk_rows,
                        "chunk respects chunk_rows"
                    );
                    covered[a.entry as usize] = a.rows.end;
                }
                for (idx, refs) in sched.send_refs.iter().enumerate() {
                    assert_eq!(covered_send[idx] as usize, refs.len(), "send entry covered");
                }
                for (idx, refs) in sched.recv_refs.iter().enumerate() {
                    assert_eq!(covered_recv[idx] as usize, refs.len(), "recv entry covered");
                }
            }
        }
    }

    #[test]
    fn dependencies_point_backwards() {
        let info = info();
        for rank in 0..info.num_devices() {
            for pipe in [
                &info.forward_pipelines[rank],
                &info.backward_pipelines[rank],
            ] {
                for (i, a) in pipe.actions.iter().enumerate() {
                    for &d in &pipe.deps[a.deps.start as usize..a.deps.end as usize] {
                        assert!(
                            (d as usize) < i,
                            "rank {rank}: action {i} depends on later action {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn infinite_chunk_rows_yield_one_chunk_per_entry() {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let opts = BuildOptions {
            chunk_rows: usize::MAX,
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::fig6(), opts);
        for rank in 0..info.num_devices() {
            for pipe in [
                &info.forward_pipelines[rank],
                &info.backward_pipelines[rank],
            ] {
                assert!(pipe.actions.iter().all(|a| a.chunk == 0));
            }
        }
    }
}
