//! Compiled per-device execution schedules.
//!
//! The send/recv tables ([`SendRecvTables`]) are the paper's portable
//! plan representation: vertex *global ids* grouped per `(stage,
//! substage, peer)`. Executing them directly forces the runtime to
//! re-filter the whole entry list once per stage (O(stages × entries))
//! and to resolve every vertex id through `LocalGraph::local_id` — a
//! binary search — on every operation of every layer of every epoch,
//! buffering relayed embeddings in a per-op `HashMap`.
//!
//! A [`DeviceSchedule`] hoists all of that to `build_comm_info` time:
//!
//! * entries are grouped once into [`StageGroup`] index ranges over the
//!   already-sorted table (one pass, no per-op filtering);
//! * every send/recv vertex id is pre-resolved to a packed row reference
//!   into either the operation's live matrix or a flat scratch buffer
//!   that replaces the relay/accumulator `HashMap`s.
//!
//! Row-reference encoding — forward ([`DeviceSchedule::forward`]),
//! against the full visible embedding matrix (`num_total` rows):
//!
//! * `r < num_total` — row `r` of the output matrix;
//! * `r >= num_total` — row `r - num_total` of the relay scratch.
//!
//! Backward ([`DeviceSchedule::backward`]), against the local gradient
//! matrix (`num_local` rows) plus an accumulator scratch laid out as
//! `num_remote` remote-vertex rows followed by relay rows:
//!
//! * `r < num_local` — row `r` of the local gradient (accumulated);
//! * `r >= num_local` — row `r - num_local` of the scratch (accumulated;
//!   the remote prefix is seeded from the consumer gradient, relay rows
//!   from zero, so a relay forwarded before any contribution arrives
//!   sends zeros exactly like the uncompiled path).

use std::collections::HashMap;
use std::ops::Range;

use dgcl_graph::VertexId;
use dgcl_partition::relation::LocalGraph;
use dgcl_plan::tuples::SendRecvTables;

use crate::error::RuntimeError;

/// One `(stage, substage)` step of a device's schedule: the contiguous
/// index range of its table entries (the tables are sorted by
/// `(stage, substage, peer)`, so every step is a single run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageGroup {
    /// Stage index.
    pub stage: usize,
    /// Sub-stage index.
    pub substage: usize,
    /// Index range into the device's `per_device` table entries.
    pub ios: Range<usize>,
}

/// A device's compiled schedule for one plan direction. Indices in
/// `send_refs` / `recv_refs` parallel the device's `per_device` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSchedule {
    /// Steps in execution order.
    pub groups: Vec<StageGroup>,
    /// Per table entry: pre-resolved row references for `T^s`.
    pub send_refs: Vec<Vec<u32>>,
    /// Per table entry: pre-resolved row references for `T^r`.
    pub recv_refs: Vec<Vec<u32>>,
    /// Per table entry: the peer device it sends to and receives from.
    pub peers: Vec<usize>,
    /// Rows of scratch the operation needs (forward: relay rows;
    /// backward: `num_remote` remote rows plus relay rows).
    pub scratch_rows: usize,
}

/// Groups a sorted entry list into `(stage, substage)` runs.
fn group_stages(ios: &[dgcl_plan::tuples::StageIo]) -> Vec<StageGroup> {
    debug_assert!(
        ios.windows(2)
            .all(|w| (w[0].stage, w[0].substage, w[0].peer)
                <= (w[1].stage, w[1].substage, w[1].peer)),
        "table entries must be sorted by (stage, substage, peer)"
    );
    let mut groups: Vec<StageGroup> = Vec::new();
    for (i, io) in ios.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if (g.stage, g.substage) == (io.stage, io.substage) => g.ios.end = i + 1,
            _ => groups.push(StageGroup {
                stage: io.stage,
                substage: io.substage,
                ios: i..i + 1,
            }),
        }
    }
    groups
}

impl DeviceSchedule {
    /// Compiles `rank`'s forward (embedding allgather) schedule.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] if the tables ask the device to forward
    /// a vertex it never received — the same protocol bug the uncompiled
    /// runtime detects per operation, caught here once at build time.
    pub fn forward(
        tables: &SendRecvTables,
        rank: usize,
        lg: &LocalGraph,
    ) -> Result<Self, RuntimeError> {
        let ios = &tables.per_device[rank];
        let groups = group_stages(ios);
        let num_total = lg.num_total();
        let mut send_refs = vec![Vec::new(); ios.len()];
        let mut recv_refs = vec![Vec::new(); ios.len()];
        let mut relay_slots: HashMap<VertexId, u32> = HashMap::new();
        for group in &groups {
            // Sends run before receives within a group, so a relayed
            // vertex must have arrived in an *earlier* group.
            for idx in group.ios.clone() {
                send_refs[idx] = ios[idx]
                    .send
                    .iter()
                    .map(|&v| match lg.local_id(v) {
                        Some(li) => Ok(li as u32),
                        None => match relay_slots.get(&v) {
                            Some(&slot) => Ok(num_total as u32 + slot),
                            None => Err(RuntimeError::Protocol {
                                rank,
                                detail: format!("device {rank} lacks vertex {v} to forward"),
                            }),
                        },
                    })
                    .collect::<Result<_, _>>()?;
            }
            for idx in group.ios.clone() {
                recv_refs[idx] = ios[idx]
                    .recv
                    .iter()
                    .map(|&v| match lg.local_id(v) {
                        Some(li) => li as u32,
                        None => {
                            let next = relay_slots.len() as u32;
                            num_total as u32 + *relay_slots.entry(v).or_insert(next)
                        }
                    })
                    .collect();
            }
        }
        Ok(Self {
            groups,
            send_refs,
            recv_refs,
            peers: ios.iter().map(|io| io.peer).collect(),
            scratch_rows: relay_slots.len(),
        })
    }

    /// Compiles `rank`'s backward (gradient scatter) schedule.
    ///
    /// # Errors
    ///
    /// Infallible today (backward relays accumulate from zero, so there
    /// is no lacks-vertex case); `Result` keeps the signature symmetric
    /// with [`DeviceSchedule::forward`] for callers compiling both.
    pub fn backward(
        tables: &SendRecvTables,
        rank: usize,
        lg: &LocalGraph,
    ) -> Result<Self, RuntimeError> {
        let ios = &tables.per_device[rank];
        let groups = group_stages(ios);
        let num_local = lg.num_local;
        let num_remote = lg.num_remote();
        let mut send_refs = vec![Vec::new(); ios.len()];
        let mut recv_refs = vec![Vec::new(); ios.len()];
        // Relay rows follow the remote prefix in the scratch buffer. A
        // relay vertex first seen in a *send* gets a fresh zero row — the
        // uncompiled path sends zeros for a relay with no contributions
        // yet. Plans never ask a device to send gradient for a vertex it
        // owns, but if one did, the uncompiled path would also send zeros
        // (its accumulator never holds owned rows), so such sends share a
        // dedicated always-zero scratch row rather than leaking the
        // device's own gradient.
        let mut relay_slots: HashMap<VertexId, u32> = HashMap::new();
        // Owned-vertex sends are marked with a sentinel and patched to
        // the final zero row once the relay-slot count is known.
        const ZERO_SENTINEL: u32 = u32::MAX;
        let mut needs_zero_row = false;
        for group in &groups {
            for idx in group.ios.clone() {
                send_refs[idx] = ios[idx]
                    .send
                    .iter()
                    .map(|&v| match lg.local_id(v) {
                        Some(li) if li >= num_local => li as u32,
                        Some(_) => {
                            needs_zero_row = true;
                            ZERO_SENTINEL
                        }
                        None => {
                            let next = relay_slots.len() as u32;
                            let slot = *relay_slots.entry(v).or_insert(next);
                            (num_local + num_remote) as u32 + slot
                        }
                    })
                    .collect();
            }
            for idx in group.ios.clone() {
                recv_refs[idx] = ios[idx]
                    .recv
                    .iter()
                    .map(|&v| match lg.local_id(v) {
                        Some(li) => li as u32,
                        None => {
                            let next = relay_slots.len() as u32;
                            let slot = *relay_slots.entry(v).or_insert(next);
                            (num_local + num_remote) as u32 + slot
                        }
                    })
                    .collect();
            }
        }
        let zero_row = (num_local + num_remote + relay_slots.len()) as u32;
        if needs_zero_row {
            for refs in &mut send_refs {
                for r in refs.iter_mut() {
                    if *r == ZERO_SENTINEL {
                        *r = zero_row;
                    }
                }
            }
        }
        Ok(Self {
            groups,
            send_refs,
            recv_refs,
            peers: ios.iter().map(|io| io.peer).collect(),
            scratch_rows: num_remote + relay_slots.len() + usize::from(needs_zero_row),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm_info::{build_comm_info, BuildOptions};
    use dgcl_graph::Dataset;
    use dgcl_topology::Topology;

    #[test]
    fn groups_cover_every_entry_in_order() {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        for rank in 0..info.num_devices() {
            for (tables, sched) in [
                (&info.forward_tables, &info.forward_schedules[rank]),
                (&info.backward_tables, &info.backward_schedules[rank]),
            ] {
                let ios = &tables.per_device[rank];
                let mut covered = 0usize;
                for g in &sched.groups {
                    assert_eq!(g.ios.start, covered, "groups are contiguous");
                    for io in &ios[g.ios.clone()] {
                        assert_eq!((io.stage, io.substage), (g.stage, g.substage));
                    }
                    covered = g.ios.end;
                }
                assert_eq!(covered, ios.len(), "every entry grouped");
                assert_eq!(sched.send_refs.len(), ios.len());
                assert_eq!(sched.recv_refs.len(), ios.len());
            }
        }
    }

    #[test]
    fn forward_refs_resolve_owned_and_remote_rows() {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        for rank in 0..info.num_devices() {
            let lg = info.pg.local_graph(rank);
            let sched = &info.forward_schedules[rank];
            let ios = &info.forward_tables.per_device[rank];
            for (idx, io) in ios.iter().enumerate() {
                for (&v, &r) in io.recv.iter().zip(&sched.recv_refs[idx]) {
                    match lg.local_id(v) {
                        Some(li) => assert_eq!(r as usize, li),
                        None => assert!(r as usize >= lg.num_total(), "relay ref"),
                    }
                }
            }
            assert!(
                sched.scratch_rows <= info.pg.partition.len(),
                "relay rows bounded by vertex count"
            );
        }
    }

    #[test]
    fn backward_remote_rows_map_into_scratch_prefix() {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        for rank in 0..info.num_devices() {
            let lg = info.pg.local_graph(rank);
            let sched = &info.backward_schedules[rank];
            let ios = &info.backward_tables.per_device[rank];
            for (idx, io) in ios.iter().enumerate() {
                for (&v, &r) in io.send.iter().zip(&sched.send_refs[idx]) {
                    match lg.local_id(v) {
                        Some(li) if li >= lg.num_local => assert_eq!(r as usize, li),
                        // Owned-vertex sends (not produced by real plans)
                        // and relays both live past the remote prefix.
                        _ => assert!(
                            (r as usize) >= lg.num_local + lg.num_remote(),
                            "relay rows follow the remote prefix"
                        ),
                    }
                }
            }
            assert!(sched.scratch_rows >= lg.num_remote());
        }
    }
}
