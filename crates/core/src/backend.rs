//! Interchangeable communication backends for distributed aggregation.
//!
//! The trainer computes each layer as `UPDATE(h_local, AGGREGATE(...))`;
//! how the `AGGREGATE` half crosses device boundaries is a pluggable
//! [`CommBackend`]:
//!
//! * [`PlannedBackend`] — the paper's path: SPST-planned allgather of
//!   the vertex-cut halo, local aggregation over the full visible
//!   matrix, reversed-plan gradient scatter. Communication volume is
//!   proportional to the vertex cut.
//! * [`CagnetBackend`] — CAGNET-style 1D/1.5D partitioned SpMM
//!   (Tripathy et al., PAPERS.md): the adjacency is block-partitioned,
//!   aggregation runs as a sequence of dense feature-block broadcasts
//!   interleaved with local sparse-matrix × dense-matrix products, and
//!   no vertex-cut halo is ever materialised. Per-device receive volume
//!   is `O(n·f/c)` regardless of the cut.
//!
//! The offline [`BackendSelector`](dgcl_sim::BackendSelector) prices
//! both on the fluid network model and
//! [`build_comm_info`](crate::comm_info::build_comm_info) records the
//! verdict; every rank reads the same
//! [`CommInfo`](crate::comm_info::CommInfo), so all ranks agree
//! on the backend with no negotiation round.
//!
//! # Bitwise parity
//!
//! Both backends produce *forward* aggregates bitwise identical to the
//! single-device kernels. For CAGNET this relies on three invariants:
//! ownership is contiguous ascending (block partition), rounds are
//! consumed in ascending fat-block order, and every [`CsrBlock`] keeps
//! its columns in ascending global order — together they make the
//! distributed accumulation a flat left fold in ascending neighbour
//! order, exactly the fold `aggregate_sum` runs. The CAGNET *backward*
//! is bitwise too (a mean is `mean_scale` after the forward SpMM and
//! before the transpose one, exactly as on a single device); the
//! planned backward folds remote contributions along the SPST tree, so
//! cross-device gradient parity there is tight-tolerance, not bitwise.

use dgcl_gnn::aggregate::{aggregate, aggregate_backward, mean_scale};
use dgcl_gnn::AggKind;
use dgcl_sim::backends::contiguous_split;
use dgcl_sim::BackendKind;
use dgcl_tensor::{compute_threads, spmm_csr_dense_into, CsrBlock, Matrix};

use crate::collectives::{BroadcastAlgo, GroupSpec};
use crate::error::RuntimeError;
use crate::fabric::{expect_payload, MsgKey};
use crate::runtime::DeviceHandle;

/// How [`build_comm_info`](crate::comm_info::build_comm_info) picks the
/// aggregation backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendPolicy {
    /// Price both backends with the offline
    /// [`BackendSelector`](dgcl_sim::BackendSelector) and take the
    /// cheaper one.
    Auto,
    /// Use this backend unconditionally (single-device clusters still
    /// fall back to planned — there is nothing to communicate).
    Fixed(BackendKind),
}

/// One side of the aggregation exchange: everything the trainer needs
/// from a backend is the distributed aggregate (forward) and its
/// adjoint (backward). Implementations must be *op-aligned*: every rank
/// calling the same method in lockstep bumps its op counter the same
/// number of times, so collectives before and after the exchange stay
/// matched.
pub trait CommBackend {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// The distributed aggregate over the full graph: row `i` of the
    /// result is `AGG({ h_u | u ∈ N(v_i) })` for this device's `i`-th
    /// owned vertex, where `h` is the distributed matrix whose local
    /// slice is `h_local`.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; errors poison the fabric so peers unwind.
    fn agg_forward(
        &self,
        dev: &DeviceHandle<'_>,
        h_local: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError>;

    /// The adjoint of [`CommBackend::agg_forward`]: takes the gradient
    /// with respect to this device's aggregate rows and returns the
    /// gradient with respect to its owned embedding rows, with every
    /// remote consumer's contribution folded in.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`]; errors poison the fabric so peers unwind.
    fn agg_backward(
        &self,
        dev: &DeviceHandle<'_>,
        grad_agg: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError>;
}

/// The backend matching `kind`.
pub fn backend_for(kind: BackendKind) -> Box<dyn CommBackend> {
    match kind {
        BackendKind::Planned => Box::new(PlannedBackend),
        BackendKind::Cagnet { replication } => Box::new(CagnetBackend { replication }),
    }
}

/// The SPST-planned backend: allgather the vertex-cut halo, aggregate
/// locally, scatter gradients back along the reversed plan.
#[derive(Debug, Clone, Copy)]
pub struct PlannedBackend;

impl CommBackend for PlannedBackend {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn agg_forward(
        &self,
        dev: &DeviceHandle<'_>,
        h_local: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError> {
        let lg = dev.local_graph();
        let full = dev.graph_allgather(h_local)?;
        Ok(aggregate(kind, &lg.graph, &full, lg.num_local))
    }

    fn agg_backward(
        &self,
        dev: &DeviceHandle<'_>,
        grad_agg: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError> {
        let lg = dev.local_graph();
        let grad_full = aggregate_backward(kind, &lg.graph, grad_agg, lg.num_total());
        dev.scatter_backward(&grad_full)
    }
}

/// The CAGNET backend: 1D (`replication == 1`) or 1.5D (`> 1`)
/// block-partitioned SpMM aggregation over the precomputed
/// [`CagnetBlocks`](dgcl_partition::CagnetBlocks) in
/// [`CommInfo`](crate::comm_info::CommInfo).
#[derive(Debug, Clone, Copy)]
pub struct CagnetBackend {
    /// Replication factor `c`; must divide the device count.
    pub replication: usize,
}

impl CommBackend for CagnetBackend {
    fn name(&self) -> &'static str {
        "cagnet"
    }

    fn agg_forward(
        &self,
        dev: &DeviceHandle<'_>,
        h_local: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError> {
        let mut out = cagnet_exchange(dev, h_local, self.replication, false)?;
        if kind == AggKind::Mean {
            // A block sees a slice of a row: the divisor is the vertex's
            // global degree.
            let degrees = dev.comm_info().cagnet.degrees(dev.rank);
            mean_scale(&mut out, 1, |i| degrees[i] as usize);
        }
        Ok(out)
    }

    fn agg_backward(
        &self,
        dev: &DeviceHandle<'_>,
        grad_agg: &Matrix,
        kind: AggKind,
    ) -> Result<Matrix, RuntimeError> {
        if kind == AggKind::Sum {
            return cagnet_exchange(dev, grad_agg, self.replication, true);
        }
        let degrees = dev.comm_info().cagnet.degrees(dev.rank);
        let mut scaled = grad_agg.clone();
        mean_scale(&mut scaled, 1, |i| degrees[i] as usize);
        cagnet_exchange(dev, &scaled, self.replication, true)
    }
}

/// The sparse blocks a `(mate row, round column)` product reads:
/// forward aggregation multiplies the adjacency, backward its
/// transpose.
fn pick_block<'a>(dev: &DeviceHandle<'a>, transpose: bool, d: usize, t: usize) -> &'a CsrBlock {
    let cb = &dev.comm_info().cagnet;
    if transpose {
        cb.tblock(d, t)
    } else {
        cb.block(d, t)
    }
}

/// The shared CAGNET engine: computes `A · H` (or `Aᵀ · H` with
/// `transpose`) for the distributed sparse `A` and the distributed
/// dense `H` whose local slice is `input`, returning this device's
/// owned output rows. One body on the `r × c` grid for every `c`
/// (fat-row assembly, column-group broadcast waves, a sequential
/// fat-panel chain combine, and a thin return); 1D is `c = 1`, where
/// the fat row is one thin panel and the chain has no hops.
///
/// Every rank performs the identical op-counter sequence of
/// `c + ceil(r/c) + (c − 1) + 1` ops, with columns short on rounds
/// padding via [`DeviceHandle::align_op`].
fn cagnet_exchange(
    dev: &DeviceHandle<'_>,
    input: &Matrix,
    c: usize,
    transpose: bool,
) -> Result<Matrix, RuntimeError> {
    let info = dev.comm_info();
    let p = info.num_devices();
    let rank = dev.rank;
    assert!(
        c >= 1 && p.is_multiple_of(c),
        "replication must divide devices"
    );
    let len = |m: usize| info.pg.local[m].len();
    let num_local = len(rank);
    let cols = input.cols();
    assert_eq!(input.rows(), num_local, "expected owned rows only");
    let threads = compute_threads();
    if p == 1 {
        let mut out = Matrix::zeros(num_local, cols);
        spmm_csr_dense_into(
            pick_block(dev, transpose, 0, 0),
            input.as_slice(),
            cols,
            out.as_mut_slice(),
            threads,
        );
        return Ok(out);
    }
    // The r × c grid: rank = fat_row * c + col.
    let r = p / c;
    let row_f = rank / c;
    let col_j = rank % c;
    let fat_len = |f: usize| (f * c..(f + 1) * c).map(len).sum::<usize>();
    let my_fat = fat_len(row_f);
    // Assembly: c in-row broadcasts build every member's fat input
    // panel (the stacked thin panels of its fat row). Grid rows are
    // disjoint groups, so all fat rows assemble concurrently.
    let row_group = GroupSpec {
        offset: row_f * c,
        stride: 1,
        len: c,
    };
    let mut fat_in = Matrix::zeros(my_fat, cols);
    let mut off = 0usize;
    for q in 0..c {
        let m = row_f * c + q;
        let buf = if m == rank {
            input.clone()
        } else {
            Matrix::zeros(len(m), cols)
        };
        let buf = dev.broadcast_group(BroadcastAlgo::Flat, row_group, q, buf)?;
        fat_in.as_mut_slice()[off * cols..(off + len(m)) * cols].copy_from_slice(buf.as_slice());
        off += len(m);
    }
    // One round: multiply every (mate, thin-column) block pair in
    // ascending order into the running fat output panel.
    let accumulate = |z: &mut Matrix, t: usize, fat_h: &Matrix| {
        let mut zoff = 0usize;
        for m in row_f * c..(row_f + 1) * c {
            let m_rows = len(m);
            let mut hoff = 0usize;
            for tt in t * c..(t + 1) * c {
                let tt_rows = len(tt);
                spmm_csr_dense_into(
                    pick_block(dev, transpose, m, tt),
                    &fat_h.as_slice()[hoff * cols..(hoff + tt_rows) * cols],
                    cols,
                    &mut z.as_mut_slice()[zoff * cols..(zoff + m_rows) * cols],
                    threads,
                );
                hoff += tt_rows;
            }
            zoff += m_rows;
        }
    };
    // Broadcast waves: column j owns the contiguous round range Q_j;
    // in wave w the rank at (round, j) broadcasts its fat panel down
    // the column. The running panel starts as zeros at column 0 (the
    // seed `aggregate_sum` uses), so column 0 folds each round in as it
    // arrives; every other column stores its rounds until the running
    // panel reaches it (accumulating into a private zero panel first and
    // merging later would associate the sum differently and break
    // bitwise parity).
    let col_group = GroupSpec {
        offset: col_j,
        stride: c,
        len: r,
    };
    let (q_start, q_len) = contiguous_split(r, c, col_j);
    let mut z = Matrix::zeros(my_fat, cols);
    let mut stored: Vec<(usize, Matrix)> = Vec::new();
    for w in 0..r.div_ceil(c) {
        if w < q_len {
            let t = q_start + w;
            let buf = if t == row_f {
                fat_in.clone()
            } else {
                Matrix::zeros(fat_len(t), cols)
            };
            let buf = dev.broadcast_group(BroadcastAlgo::Flat, col_group, t, buf)?;
            if col_j == 0 {
                accumulate(&mut z, t, &buf);
            } else {
                stored.push((t, buf));
            }
        } else {
            dev.align_op()?;
        }
    }
    // Chain combine: the running panel hops rightward, each column
    // folding its stored rounds in before forwarding. Q_j ranges are
    // ascending in j, so the overall fold order is ascending rounds.
    for hop in 0..c - 1 {
        if col_j == hop {
            for (t, fat_h) in &stored {
                accumulate(&mut z, *t, fat_h);
            }
            dev.with_op(|op| {
                let key: MsgKey = (op, 0, 0, 0);
                dev.fabric().wait_ready(rank + 1, op, rank)?;
                dev.fabric()
                    .send(rank, rank + 1, key, z.as_slice().to_vec())
            })?;
        } else if col_j == hop + 1 {
            let payload = dev.with_op(|op| {
                let key: MsgKey = (op, 0, 0, 0);
                let payload = dev.fabric().recv(rank - 1, rank, key)?;
                expect_payload(rank, payload.len(), my_fat * cols, key)?;
                Ok(payload)
            })?;
            z = Matrix::from_vec(my_fat, cols, payload);
        } else {
            dev.align_op()?;
        }
    }
    if col_j == c - 1 {
        for (t, fat_h) in &stored {
            accumulate(&mut z, *t, fat_h);
        }
    }
    // Return: the chain tail owns the finished fat panel and hands each
    // grid-row mate its thin slice.
    if col_j == c - 1 {
        dev.with_op(|op| {
            let key: MsgKey = (op, 0, 0, 0);
            let mut mine = Matrix::zeros(num_local, cols);
            let mut off = 0usize;
            for q in 0..c {
                let m = row_f * c + q;
                let slice = &z.as_slice()[off * cols..(off + len(m)) * cols];
                if m == rank {
                    mine.as_mut_slice().copy_from_slice(slice);
                } else {
                    dev.fabric().wait_ready(m, op, rank)?;
                    dev.fabric().send(rank, m, key, slice.to_vec())?;
                }
                off += len(m);
            }
            Ok(mine)
        })
    } else {
        dev.with_op(|op| {
            let key: MsgKey = (op, 0, 0, 0);
            let tail = row_f * c + c - 1;
            let payload = dev.fabric().recv(tail, rank, key)?;
            expect_payload(rank, payload.len(), num_local * cols, key)?;
            Ok(Matrix::from_vec(num_local, cols, payload))
        })
    }
}
