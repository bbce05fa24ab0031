//! Chunk-pipelined execution of the compiled device schedules: the one
//! executor every message of the runtime moves through — the planned
//! gather / scatter, every compiled collective of the zoo, the sampled
//! row exchange and CAGNET's chain hop and return. Outside this module
//! only the uncompiled `*_reference` walkers of [`crate::runtime`] call
//! the fabric's send and receive primitives.
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
//! The executor reads only a [`PipelineSchedule`]: each action names its
//! peer and rows, which the caller's closure resolves against its own
//! layout. One-stage exchanges build theirs with
//! [`PipelineSchedule::exchange`] instead of [`compile`].
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
    /// Index into the device's table entries (and `send_refs`/`recv_refs`);
    /// for a [`PipelineSchedule::exchange`], into its `sends` or `recvs`.
    pub entry: u32,
    /// The device the chunk goes to or comes from.
    pub peer: u32,
    /// Stage of the entry (redundant with the table, kept for key
    /// construction without an indirection).
    pub stage: u32,
    /// Sub-stage of the entry.
    pub substage: u32,
    /// Chunk index within the entry; the fourth [`MsgKey`] component.
    pub chunk: u32,
    /// Row range this chunk covers: within the entry's ref list for a
    /// [`compile`]d schedule, within the caller's flat row layout for a
    /// [`PipelineSchedule::exchange`].
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

impl PipelineSchedule {
    /// The schedule of a one-stage exchange: every `(peer, rows)` of
    /// `sends`, then of `recvs`, becomes one unchunked action at message
    /// key `(op, 0, 0, 0)` whose `entry` is its index in its list and
    /// whose `rows` index the caller's flat row layout. Empty entries are
    /// dropped and no action depends on another.
    ///
    /// Valid only when no receive writes a row a send reads. Then its
    /// actions match what [`compile`] derives at `chunk_rows =
    /// usize::MAX` in kind, peer, key and row count, and neither has
    /// dependencies. It skips `compile`'s per-row reader lists, which
    /// cost an allocation per row: too much for a plan built every step.
    pub fn exchange(sends: &[(usize, Range<usize>)], recvs: &[(usize, Range<usize>)]) -> Self {
        let sends = sends.iter().map(|s| (ActionKind::Send, s));
        let recvs = recvs.iter().map(|r| (ActionKind::Recv, r));
        let actions = sends
            .enumerate()
            .chain(recvs.enumerate())
            .filter(|(_, (_, (_, rows)))| !rows.is_empty())
            .map(|(entry, (kind, (peer, rows)))| ChunkAction {
                kind,
                entry: entry as u32,
                peer: *peer as u32,
                stage: 0,
                substage: 0,
                chunk: 0,
                rows: rows.start as u32..rows.end as u32,
                deps: 0..0,
            })
            .collect();
        PipelineSchedule {
            chunk_rows: usize::MAX,
            actions,
            deps: Vec::new(),
        }
    }
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
    /// Append the chunk's rows to `payload` (send path).
    Pack {
        /// The action's [`ChunkAction::entry`], for callers whose rows
        /// or packing semantics differ per entry.
        entry: u32,
        /// The action's [`ChunkAction::rows`].
        rows: Range<usize>,
        /// Destination payload, pre-sized to `rows.len() * cols`.
        payload: &'a mut Vec<f32>,
    },
    /// Apply `payload`'s rows to the chunk's rows (receive path).
    Apply {
        /// The action's [`ChunkAction::entry`], for callers whose rows
        /// or apply semantics (overwrite vs accumulate) differ per entry.
        entry: u32,
        /// The action's [`ChunkAction::rows`].
        rows: Range<usize>,
        /// The received rows, `rows.len() * cols` floats.
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
                    peer: sched.peers[idx] as u32,
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
                    peer: sched.peers[idx] as u32,
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
/// dependency-respecting order, calling `io` to pack and apply the rows
/// of each chunk, `cols` floats per row.
///
/// # Errors
///
/// Any [`RuntimeError`]. The caller is responsible for poisoning the
/// fabric on errors it originated (the runtime's `poison_on_err`).
pub(crate) fn execute<F>(
    fabric: &Fabric,
    rank: usize,
    op: u64,
    pipe: &PipelineSchedule,
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
    let key = |a: &ChunkAction| -> MsgKey { (op, a.stage, a.substage, a.chunk) };
    let rows = |a: &ChunkAction| a.rows.start as usize..a.rows.end as usize;
    // One closure for both the polled and the blocking receive path.
    let apply = |io: &mut F, a: &ChunkAction, payload: Vec<f32>| -> Result<(), RuntimeError> {
        let rows = rows(a);
        expect_payload(rank, payload.len(), rows.len() * cols, key(a))?;
        io(ChunkIo::Apply {
            entry: a.entry,
            rows,
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
            let peer = a.peer as usize;
            match a.kind {
                ActionKind::Send => {
                    maybe_crash(executed)?;
                    let rows = rows(a);
                    let mut payload = fabric.checkout(rows.len() * cols);
                    io(ChunkIo::Pack {
                        entry: a.entry,
                        rows,
                        payload: &mut payload,
                    });
                    fabric.send(rank, peer, key(a), payload)?;
                }
                ActionKind::Recv => {
                    let Some(payload) = fabric.try_recv(peer, rank, key(a))? else {
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
                        key(a)
                    ),
                });
            }
            // Deadline- and poison-bounded, like every fabric wait.
            let payload = fabric.recv(a.peer as usize, rank, key(a))?;
            maybe_crash(executed)?;
            apply(&mut io, a, payload)?;
            scratch.completed[first_incomplete] = true;
            remaining -= 1;
            executed += 1;
        }
    }
    // An op with fewer actions than the crash's budget dies after its
    // last one (at once, when it has none), so a scheduled mid-op crash
    // fires in its op whatever the op's size.
    maybe_crash(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_info::{build_comm_info, BuildOptions};
    use crate::fabric::FabricConfig;
    use crate::fault::{FaultEvent, FaultPlan};
    use crate::schedule::StageGroup;
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
                    assert_eq!(
                        a.peer as usize, sched.peers[a.entry as usize],
                        "entry's peer"
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

    #[test]
    fn exchange_is_what_compile_derives_for_disjoint_rows() {
        // One stage whose sends read rows `0..8` and whose receives each
        // write rows of their own from 8 up, so no receive writes a row a
        // send reads. The entries, in ascending peer order, send only,
        // receive only, do both and do neither.
        let lens = [(1, 3, 0), (2, 0, 4), (4, 2, 2), (5, 0, 0), (6, 3, 1)];
        let mut sched = DeviceSchedule {
            groups: vec![StageGroup {
                stage: 0,
                substage: 0,
                ios: 0..lens.len(),
            }],
            send_refs: Vec::new(),
            recv_refs: Vec::new(),
            peers: Vec::new(),
            scratch_rows: 0,
        };
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        let (mut sent, mut received) = (0, 0);
        for (peer, s, r) in lens {
            sched.peers.push(peer);
            sched.send_refs.push((0..s as u32).collect());
            sched
                .recv_refs
                .push((8 + received..8 + received + r).map(|i| i as u32).collect());
            sends.push((peer, sent..sent + s));
            recvs.push((peer, received..received + r));
            sent += s;
            received += r;
        }
        let compiled = compile(&sched, 8 + received, usize::MAX);
        let exchange = PipelineSchedule::exchange(&sends, &recvs);
        let shape = |p: &PipelineSchedule| -> Vec<(ActionKind, u32, usize)> {
            assert!(p.deps.is_empty(), "no dependencies");
            p.actions
                .iter()
                .map(|a| {
                    assert_eq!((a.stage, a.substage, a.chunk), (0, 0, 0));
                    assert!(a.deps.is_empty());
                    (a.kind, a.peer, a.rows.len())
                })
                .collect()
        };
        assert_eq!(shape(&compiled), shape(&exchange));
        assert_eq!(exchange.actions.len(), 6, "empty entries are dropped");
        assert_eq!(compiled.chunk_rows, exchange.chunk_rows);
    }

    /// Runs `pipe` as rank 0's op `op` on a three-rank fabric whose
    /// rank 0 is scheduled to die in op 2 after `after_actions` actions;
    /// checks that the crash fires exactly when `op` is 2, and returns
    /// the fabric.
    fn run_with_mid_op_crash(pipe: &PipelineSchedule, op: u64, after_actions: usize) -> Fabric {
        let config = FabricConfig {
            faults: FaultPlan {
                events: vec![FaultEvent::CrashMidOp {
                    rank: 0,
                    at_op: 2,
                    after_actions,
                }],
            },
            ..FabricConfig::default()
        };
        let fabric = Fabric::with_config(3, config);
        let mut scratch = PipelineScratch::default();
        let result = execute(&fabric, 0, op, pipe, 1, &mut scratch, |io| {
            if let ChunkIo::Pack { rows, payload, .. } = io {
                payload.extend(rows.map(|r| r as f32));
            }
        });
        if op == 2 {
            let err = result.expect_err("the scheduled crash fires");
            assert_eq!(err, RuntimeError::InjectedCrash { rank: 0, at_op: 2 });
            assert!(fabric.is_poisoned());
        } else {
            result.expect("no crash is scheduled before op 2");
            assert!(!fabric.is_poisoned());
        }
        fabric
    }

    #[test]
    fn a_mid_op_crash_whose_budget_outlasts_the_op_still_fires() {
        let sends = PipelineSchedule::exchange(&[(1, 0..2), (2, 2..3)], &[]);
        // A budget of 5 in an op of 2 sends: both are delivered, then the
        // rank dies.
        let fabric = run_with_mid_op_crash(&sends, 2, 5);
        for (peer, rows) in [(1, vec![0.0, 1.0]), (2, vec![2.0])] {
            let got = fabric.try_recv(0, peer, (2, 0, 0, 0));
            assert_eq!(got, Ok(Some(rows)), "peer {peer}");
        }
        // An op with no action dies at once.
        run_with_mid_op_crash(&PipelineSchedule::exchange(&[], &[]), 2, 5);
        // An op before the scheduled one runs unharmed.
        run_with_mid_op_crash(&sends, 1, 5);
        // A budget the op reaches fires mid-op, before the second send.
        let fabric = run_with_mid_op_crash(&sends, 2, 1);
        assert!(
            fabric.try_recv(0, 2, (2, 0, 0, 0)).is_err(),
            "nothing for peer 2"
        );
    }
}
