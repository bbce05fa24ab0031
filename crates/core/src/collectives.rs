//! The collective algorithm zoo: flat, ring and halving/doubling
//! allreduce plus a flat group broadcast, compiled onto the chunk
//! pipeline.
//!
//! Every collective is a program of send/receive primitives, the way
//! NCCL builds them: each algorithm is expressed as a synthetic
//! [`DeviceSchedule`] over a flat element space, compiled by
//! [`pipeline::compile`] into the same dependency-list
//! [`PipelineSchedule`] the planner's allgather uses, and driven by the
//! same executor — so chunk streaming, deadline bounding, poison
//! propagation and fault injection all come for free. An empty
//! allreduce is the flat allreduce of one zero element: a barrier made
//! of messages, which keeps op ids aligned. The flat
//! allreduce (gather into rank 0, broadcast back) has the fewest hops
//! but pushes the full vector times the device count through rank 0;
//! the bandwidth-optimal ring and halving/doubling move `2(n−1)/n` of
//! the data per device instead.
//!
//! # Bitwise parity
//!
//! Every algorithm must produce the same bits: a left-associated fold
//! of the per-rank contributions in rank order (`((c₀+c₁)+c₂)+…`).
//! IEEE-754 addition is commutative bitwise but not associative, which
//! rules out the textbook formulations:
//!
//! * **Flat** is the fold itself: rank 0 adds the arrivals onto its own
//!   contribution in rank order.
//! * **Ring** is the *chain-pipelined* variant, not the rotated ring:
//!   the whole vector flows `0→1→…→n−1` accumulating at each hop
//!   (`cᵢ + partial` — a single commutation of the fold, so bitwise
//!   equal), then chains back with overwrites. The rotated ring
//!   would fold segment `s` starting at rank `s`, a different
//!   association.
//! * **Halving/doubling** is a *direct-exchange* reduce-scatter (every
//!   rank sends its contribution of segment `s` straight to rank `s`,
//!   which folds them in rank order — the per-entry apply order the
//!   compiled hazards already serialise) followed by a Bruck
//!   recursive-doubling allgather, which is pure data movement. The
//!   butterfly reduce-scatter would build `(c₀+c₁)+(c₂+c₃)`.
//!
//! Accumulation is always seeded by the rank-0 contribution (in place
//! or by an *overwrite*), never from zero (`0.0 + (-0.0)` is `+0.0`,
//! which would break parity on negative zeros).
//!
//! Algorithm *selection* lives in `dgcl-sim` ([`AlgorithmSelector`]):
//! the cost models mirror the fabric's chunked execution, and the
//! tuned table is deterministic, so every rank picks the same algorithm
//! from local information alone — no negotiation round.

use std::collections::HashMap;

use dgcl_tensor::Matrix;

use crate::error::RuntimeError;
use crate::fabric::Fabric;
use crate::pipeline::{self, ChunkIo, PipelineSchedule, PipelineScratch};
use crate::schedule::{DeviceSchedule, StageGroup};

pub use dgcl_sim::{AlgorithmSelector, AllreduceAlgo};

/// How the runtime picks an allreduce algorithm per call.
#[derive(Debug, Clone)]
pub enum AllreducePolicy {
    /// Always use one algorithm.
    Fixed(AllreduceAlgo),
    /// Pick per message size from a tuned cost-model table
    /// ([`AlgorithmSelector::tune`]).
    Auto(AlgorithmSelector),
}

impl Default for AllreducePolicy {
    /// The flat allreduce. Training replaces this default with a tuned
    /// selector; every algorithm yields the same bits.
    fn default() -> Self {
        AllreducePolicy::Fixed(AllreduceAlgo::Flat)
    }
}

impl AllreducePolicy {
    /// The algorithm to run for a `bytes`-sized allreduce.
    pub fn pick(&self, bytes: u64) -> AllreduceAlgo {
        match self {
            AllreducePolicy::Fixed(a) => *a,
            AllreducePolicy::Auto(sel) => sel.pick(bytes),
        }
    }
}

/// Per-entry receive semantics of a compiled collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ApplyMode {
    /// Copy the payload over the destination elements (seed / pure
    /// data movement).
    Overwrite,
    /// Add the payload into the destination elements (reduction hop).
    Accumulate,
}

/// One send or receive of a collective schedule, before compilation:
/// `refs` are indices into the flattened element space.
struct Entry {
    stage: usize,
    peer: usize,
    send: Vec<u32>,
    recv: Vec<u32>,
    mode: ApplyMode,
}

impl Entry {
    fn send(stage: usize, peer: usize, refs: Vec<u32>) -> Self {
        Entry {
            stage,
            peer,
            send: refs,
            recv: Vec::new(),
            mode: ApplyMode::Overwrite,
        }
    }

    fn recv(stage: usize, peer: usize, refs: Vec<u32>, mode: ApplyMode) -> Self {
        Entry {
            stage,
            peer,
            send: Vec::new(),
            recv: refs,
            mode,
        }
    }
}

/// A collective compiled for one `(algorithm, length, chunk)` cell.
struct Compiled {
    sched: DeviceSchedule,
    pipe: PipelineSchedule,
    /// Receive semantics per table entry.
    apply: Vec<ApplyMode>,
}

/// Cache key for compiled collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    Allreduce(AllreduceAlgo, usize, usize),
    /// `(root position, group, elems, chunk)`.
    Broadcast(usize, GroupSpec, usize, usize),
}

/// An arithmetic subset of ranks a collective runs over: members are
/// `offset + i·stride` for `i in 0..len`. The CAGNET backend's grid
/// rows (`stride == 1`) and grid columns (`stride == c`) are both of
/// this shape, as is the whole cluster (`offset 0, stride 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// Rank of member 0.
    pub offset: usize,
    /// Rank distance between consecutive members.
    pub stride: usize,
    /// Number of members.
    pub len: usize,
}

impl GroupSpec {
    /// The whole cluster `0..devices`.
    pub fn all(devices: usize) -> Self {
        GroupSpec {
            offset: 0,
            stride: 1,
            len: devices,
        }
    }

    /// The rank of member `pos`.
    pub fn rank(&self, pos: usize) -> usize {
        self.offset + pos * self.stride
    }

    /// The member position of `rank`, or `None` if it is not a member.
    pub fn pos_of(&self, rank: usize) -> Option<usize> {
        let stride = self.stride.max(1);
        if rank < self.offset {
            return None;
        }
        let d = rank - self.offset;
        (d.is_multiple_of(stride) && d / stride < self.len).then_some(d / stride)
    }
}

/// Groups sorted entries into per-stage [`StageGroup`]s and compiles
/// the chunked pipeline. The compiler emits sends before receives
/// within a group, so the entry order only fixes the order *among*
/// receives of one stage — which is exactly what the rank-ordered fold
/// needs (receives pushed in rank order stay in rank order).
fn assemble(mut entries: Vec<Entry>, elems: usize, chunk_elems: usize) -> Compiled {
    entries.retain(|e| !e.send.is_empty() || !e.recv.is_empty());
    entries.sort_by_key(|e| e.stage);
    let mut groups: Vec<StageGroup> = Vec::new();
    for (idx, e) in entries.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if g.stage == e.stage => g.ios.end = idx + 1,
            _ => groups.push(StageGroup {
                stage: e.stage,
                substage: 0,
                ios: idx..idx + 1,
            }),
        }
    }
    let apply: Vec<ApplyMode> = entries.iter().map(|e| e.mode).collect();
    let sched = DeviceSchedule {
        groups,
        send_refs: entries.iter().map(|e| e.send.clone()).collect(),
        peers: entries.iter().map(|e| e.peer).collect(),
        recv_refs: entries.into_iter().map(|e| e.recv).collect(),
        scratch_rows: 0,
    };
    let pipe = pipeline::compile(&sched, elems, chunk_elems);
    Compiled { sched, pipe, apply }
}

/// Element range of contiguous segment `s` when `elems` elements are
/// split into `n` segments (first `elems % n` segments one longer).
fn segment(elems: usize, n: usize, s: usize) -> std::ops::Range<u32> {
    let base = elems / n;
    let rem = elems % n;
    let lo = s * base + s.min(rem);
    let hi = lo + base + usize::from(s < rem);
    lo as u32..hi as u32
}

/// Flat allreduce for device `rank` of `n`: a flat gather into rank 0,
/// then a flat broadcast back.
///
/// Stage 0: ranks `1..n` send their whole vector to rank 0, which adds
/// the arrivals onto its own contribution in ascending rank order
/// (entry order fixes the apply order, as in halving/doubling's fold).
/// Stage 1: rank 0 sends the sum to every rank, which overwrites with
/// it.
fn flat_allreduce(rank: usize, n: usize, elems: usize) -> Vec<Entry> {
    let all: Vec<u32> = (0..elems as u32).collect();
    if rank == 0 {
        let folds = (1..n).map(|p| Entry::recv(0, p, all.clone(), ApplyMode::Accumulate));
        let sends = (1..n).map(|p| Entry::send(1, p, all.clone()));
        folds.chain(sends).collect()
    } else {
        vec![
            Entry::send(0, 0, all.clone()),
            Entry::recv(1, 0, all, ApplyMode::Overwrite),
        ]
    }
}

/// Chain-pipelined ring allreduce for device `rank` of `n`.
///
/// Reduce phase: the full vector flows `0→1→…→n−1`, each hop adding the
/// incoming partial into its own contribution (stage `d` is device `d`'s
/// forward send). Broadcast phase: the finished sum chains back
/// `n−1→…→0` with overwrites. Chunks stream through both chains — hop
/// `d` forwards chunk `k` while chunk `k+1` is still inbound.
fn ring_allreduce(rank: usize, n: usize, elems: usize) -> Vec<Entry> {
    let all: Vec<u32> = (0..elems as u32).collect();
    let mut entries = Vec::new();
    if rank > 0 {
        entries.push(Entry::recv(
            rank - 1,
            rank - 1,
            all.clone(),
            ApplyMode::Accumulate,
        ));
    }
    if rank < n - 1 {
        entries.push(Entry::send(rank, rank + 1, all.clone()));
        entries.push(Entry::recv(
            2 * n - 3 - rank,
            rank + 1,
            all.clone(),
            ApplyMode::Overwrite,
        ));
    }
    if rank > 0 {
        entries.push(Entry::send(2 * n - 2 - rank, rank - 1, all));
    }
    entries
}

/// Direct-exchange reduce-scatter + Bruck allgather for device `rank`
/// of `n` (any `n`, not only powers of two).
///
/// Stage 0: every device sends its contribution of segment `p` straight
/// to device `p` (including itself — the self-mailbox round-trip keeps
/// the hazard chain honest) and folds the `n` arrivals for its own
/// segment in rank order, seeded by rank 0's overwrite. Stages `1+k`:
/// Bruck rounds — after round `k` device `d` holds segments
/// `[d, d+2^{k+1})` (mod `n`), so `⌈log₂ n⌉` pure-copy rounds finish
/// the allgather.
fn halving_doubling_allreduce(rank: usize, n: usize, elems: usize) -> Vec<Entry> {
    let seg = |s: usize| -> Vec<u32> { segment(elems, n, s).collect() };
    let mut entries = Vec::new();
    // Reduce-scatter: send segment p of our contribution to device p…
    for p in 0..n {
        entries.push(Entry::send(0, p, seg(p)));
    }
    // …and fold every device's contribution of our segment, in rank
    // order (entry order fixes the receive order within the stage).
    for p in 0..n {
        let mode = if p == 0 {
            ApplyMode::Overwrite
        } else {
            ApplyMode::Accumulate
        };
        entries.push(Entry::recv(0, p, seg(rank), mode));
    }
    // Bruck allgather rounds.
    let mut held = 1usize; // segments held: [rank, rank + held) mod n
    let mut k = 0usize;
    while held < n {
        let cnt = held.min(n - held);
        let to = (rank + n - held) % n;
        let from = (rank + held) % n;
        let send: Vec<u32> = (0..cnt).flat_map(|j| seg((rank + j) % n)).collect();
        let recv: Vec<u32> = (0..cnt).flat_map(|j| seg((rank + held + j) % n)).collect();
        entries.push(Entry::send(1 + k, to, send));
        entries.push(Entry::recv(1 + k, from, recv, ApplyMode::Overwrite));
        held += cnt;
        k += 1;
    }
    entries
}

/// Flat broadcast schedule for device `rank` of `n`: the root sends
/// its whole vector straight to every peer, in rank order starting at
/// the rank after its own and wrapping around.
fn broadcast_entries(rank: usize, n: usize, root: usize, elems: usize) -> Vec<Entry> {
    let all: Vec<u32> = (0..elems as u32).collect();
    if rank == root {
        (1..n)
            .map(|r| Entry::send(0, (root + r) % n, all.clone()))
            .collect()
    } else {
        vec![Entry::recv(0, root, all, ApplyMode::Overwrite)]
    }
}

/// Per-device executor for the zoo: compiles collectives on first use
/// (cached per algorithm × length × chunk) and runs them through the
/// chunk pipeline over a flattened element buffer. One engine per
/// device thread; nothing is shared.
pub struct CollectiveEngine {
    rank: usize,
    devices: usize,
    cache: HashMap<CacheKey, Compiled>,
    scratch: PipelineScratch,
    flat: Vec<f32>,
}

impl CollectiveEngine {
    /// An engine for device `rank` of a `devices`-rank cluster.
    pub fn new(rank: usize, devices: usize) -> Self {
        CollectiveEngine {
            rank,
            devices,
            cache: HashMap::new(),
            scratch: PipelineScratch::default(),
            flat: Vec::new(),
        }
    }

    /// Element-wise sum of `mats` across all ranks under `algo`: the
    /// rank-ordered fold `((c₀+c₁)+c₂)+…`, the same bits under every
    /// algorithm. Must be called by every rank with the same op id,
    /// algorithm and shapes.
    ///
    /// A single device gets its input back. An empty call is still a
    /// barrier: it runs the flat allreduce of one zero element, whose
    /// broadcast leaves rank 0 only after every rank has entered op
    /// `op`, so op ids stay aligned across ranks.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; the caller poisons the fabric for errors
    /// it originated (`DeviceHandle::poison_on_err`).
    pub fn allreduce(
        &mut self,
        fabric: &Fabric,
        op: u64,
        algo: AllreduceAlgo,
        mut mats: Vec<Matrix>,
    ) -> Result<Vec<Matrix>, RuntimeError> {
        let (rank, n) = (self.rank, self.devices);
        let elems: usize = mats.iter().map(Matrix::len).sum();
        if n < 2 {
            return Ok(mats);
        }
        let (algo, elems) = if elems == 0 {
            (AllreduceAlgo::Flat, 1)
        } else {
            (algo, elems)
        };
        let entries = || match algo {
            AllreduceAlgo::Flat => flat_allreduce(rank, n, elems),
            AllreduceAlgo::Ring => ring_allreduce(rank, n, elems),
            AllreduceAlgo::HalvingDoubling => halving_doubling_allreduce(rank, n, elems),
        };
        let chunk = fabric.config().collective_chunk;
        let key = CacheKey::Allreduce(algo, elems, chunk);
        self.run(fabric, op, key, entries, elems, chunk, &mut mats)?;
        Ok(mats)
    }

    /// Broadcasts the matrix of the member at `root_pos` to every member
    /// of `group`; the schedule only ever touches member ranks, so
    /// disjoint groups can run concurrently under the same op id. Every
    /// member must call with the same op id, group, root position and
    /// shape; non-members must not call at all (they bump
    /// their op counter with an empty collective instead).
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; see [`CollectiveEngine::allreduce`].
    ///
    /// # Panics
    ///
    /// Panics if this rank is not a member of `group` or `root_pos` is
    /// out of range.
    pub fn broadcast_group(
        &mut self,
        fabric: &Fabric,
        op: u64,
        group: GroupSpec,
        root_pos: usize,
        mut mat: Matrix,
    ) -> Result<Matrix, RuntimeError> {
        let elems = mat.len();
        if group.len < 2 || elems == 0 {
            return Ok(mat);
        }
        assert!(root_pos < group.len, "root position outside the group");
        let pos = group
            .pos_of(self.rank)
            .expect("broadcast_group caller must be a group member");
        // Build the schedule in group-position space, then remap every
        // peer to its absolute rank — that is all the executor needs,
        // since messages are addressed by (src, dst, key).
        let entries = || {
            let mut entries = broadcast_entries(pos, group.len, root_pos, elems);
            for e in &mut entries {
                e.peer = group.rank(e.peer);
            }
            entries
        };
        let chunk = fabric.config().collective_chunk;
        let key = CacheKey::Broadcast(root_pos, group, elems, chunk);
        let mut mats = vec![mat];
        self.run(fabric, op, key, entries, elems, chunk, &mut mats)?;
        mat = mats.pop().expect("one matrix");
        Ok(mat)
    }

    /// Flattens `mats` (zero-padded to `elems`), executes the compiled
    /// schedule over the element space, and unflattens the result in
    /// place. The schedule is cached per `key`; `entries` is only called
    /// to compile it on a miss.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        fabric: &Fabric,
        op: u64,
        key: CacheKey,
        entries: impl FnOnce() -> Vec<Entry>,
        elems: usize,
        chunk: usize,
        mats: &mut [Matrix],
    ) -> Result<(), RuntimeError> {
        assert!(elems <= u32::MAX as usize, "collective too large");
        let c = self
            .cache
            .entry(key)
            .or_insert_with(|| assemble(entries(), elems, chunk));
        let flat = &mut self.flat;
        flat.clear();
        for m in mats.iter() {
            flat.extend_from_slice(m.as_slice());
        }
        // Pads an empty allreduce to its one zero element.
        flat.resize(elems, 0.0);
        let (pipe, scratch) = (&c.pipe, &mut self.scratch);
        pipeline::execute(fabric, self.rank, op, pipe, 1, scratch, |req| match req {
            ChunkIo::Pack {
                entry,
                rows,
                payload,
            } => {
                for &r in &c.sched.send_refs[entry as usize][rows] {
                    payload.push(flat[r as usize]);
                }
            }
            ChunkIo::Apply {
                entry,
                rows,
                payload,
            } => {
                let refs = &c.sched.recv_refs[entry as usize][rows];
                match c.apply[entry as usize] {
                    ApplyMode::Overwrite => {
                        for (i, &r) in refs.iter().enumerate() {
                            flat[r as usize] = payload[i];
                        }
                    }
                    ApplyMode::Accumulate => {
                        for (i, &r) in refs.iter().enumerate() {
                            flat[r as usize] += payload[i];
                        }
                    }
                }
            }
        })?;
        let mut cursor = 0;
        for m in mats.iter_mut() {
            let len = m.len();
            m.as_mut_slice()
                .copy_from_slice(&self.flat[cursor..cursor + len]);
            cursor += len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs every send of every rank with exactly one matching recv:
    /// same stage, symmetric peers, same element count.
    fn sends_match_recvs(per_rank: &[Vec<Entry>]) {
        let mut sends: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut recvs: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (rank, entries) in per_rank.iter().enumerate() {
            for e in entries {
                if !e.send.is_empty() {
                    sends.push((rank, e.peer, e.stage, e.send.len()));
                }
                if !e.recv.is_empty() {
                    recvs.push((e.peer, rank, e.stage, e.recv.len()));
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs, "every send needs exactly one matching recv");
    }

    #[test]
    fn ring_schedules_pair_up() {
        // The flat schedule is checked alongside the ring.
        type Builder = fn(usize, usize, usize) -> Vec<Entry>;
        for build in [ring_allreduce as Builder, flat_allreduce] {
            for n in 2..=8 {
                for elems in [1usize, 7, 64] {
                    let per_rank: Vec<Vec<Entry>> = (0..n).map(|r| build(r, n, elems)).collect();
                    sends_match_recvs(&per_rank);
                }
            }
        }
    }

    #[test]
    fn halving_doubling_schedules_pair_up() {
        // Non-powers-of-two exercise the uneven Bruck rounds.
        for n in 2..=8 {
            for elems in [1usize, 7, 64] {
                let per_rank: Vec<Vec<Entry>> = (0..n)
                    .map(|r| halving_doubling_allreduce(r, n, elems))
                    .collect();
                sends_match_recvs(&per_rank);
            }
        }
    }

    #[test]
    fn broadcast_schedules_pair_up() {
        for n in 2..=8 {
            for root in [0, n - 1] {
                let per_rank: Vec<Vec<Entry>> =
                    (0..n).map(|r| broadcast_entries(r, n, root, 13)).collect();
                sends_match_recvs(&per_rank);
            }
        }
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        for n in 2..=8 {
            for root in 0..n {
                for (rank, entries) in (0..n).map(|r| broadcast_entries(r, n, root, 5)).enumerate()
                {
                    let recvs = entries.iter().filter(|e| !e.recv.is_empty()).count();
                    let expect = usize::from(rank != root);
                    assert_eq!(recvs, expect, "n={n} root={root} rank={rank}");
                }
            }
        }
    }

    #[test]
    fn halving_doubling_folds_in_rank_order() {
        // The stage-0 receives that fold a segment must arrive in rank
        // order. Halving/doubling seeds with an overwrite from rank 0;
        // the flat root folds peers 1.. onto its own contribution.
        for n in [3usize, 5, 8] {
            for (entries, first) in [
                (halving_doubling_allreduce(1, n, 64), 0),
                (flat_allreduce(0, n, 64), 1),
            ] {
                let folds: Vec<(usize, ApplyMode)> = entries
                    .iter()
                    .filter(|e| e.stage == 0 && !e.recv.is_empty())
                    .map(|e| (e.peer, e.mode))
                    .collect();
                assert_eq!(folds.len(), n - first);
                for (i, (peer, mode)) in folds.iter().enumerate() {
                    assert_eq!(*peer, first + i, "receives in rank order");
                    let expect = if *peer == 0 {
                        ApplyMode::Overwrite
                    } else {
                        ApplyMode::Accumulate
                    };
                    assert_eq!(*mode, expect);
                }
            }
        }
    }

    #[test]
    fn segments_partition_the_element_space() {
        for n in 1..=8 {
            for elems in [0usize, 1, 7, 64] {
                let mut next = 0u32;
                for s in 0..n {
                    let r = segment(elems, n, s);
                    assert_eq!(r.start, next, "contiguous");
                    next = r.end;
                }
                assert_eq!(next as usize, elems, "covers everything");
            }
        }
    }

    #[test]
    fn assemble_groups_by_stage_and_points_deps_backwards() {
        for n in [2usize, 5, 8] {
            for rank in 0..n {
                for entries in [
                    flat_allreduce(rank, n, 100),
                    ring_allreduce(rank, n, 100),
                    halving_doubling_allreduce(rank, n, 100),
                ] {
                    let c = assemble(entries, 100, 16);
                    for w in c.sched.groups.windows(2) {
                        assert!(w[0].stage < w[1].stage, "stages strictly increase");
                    }
                    for (i, a) in c.pipe.actions.iter().enumerate() {
                        for &d in &c.pipe.deps[a.deps.start as usize..a.deps.end as usize] {
                            assert!((d as usize) < i, "dep {d} of action {i} points forward");
                        }
                    }
                }
            }
        }
    }
}
