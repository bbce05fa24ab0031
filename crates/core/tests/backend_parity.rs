//! Backend parity: the planned and CAGNET aggregation backends must
//! agree with the single-device kernels — bitwise where the design
//! guarantees it (all forwards; the CAGNET backward), tight-tolerance
//! where cross-device tree folds reassociate the sum (the planned
//! backward).

use dgcl::backend::backend_for;
use dgcl::runtime::run_cluster;
use dgcl::{build_comm_info, BackendKind, BuildOptions, CommInfo};
use dgcl_gnn::aggregate::{
    aggregate_mean, aggregate_mean_backward, aggregate_sum, aggregate_sum_backward,
};
use dgcl_gnn::AggKind;
use dgcl_graph::generators::erdos_renyi;
use dgcl_graph::CsrGraph;
use dgcl_tensor::Matrix;
use dgcl_topology::Topology;
use proptest::prelude::*;

/// Deterministic dense matrix with rows keyed by global vertex id, so
/// dispatched slices line up with the reference rows.
fn keyed_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in 0..rows {
        for c in 0..cols {
            m[(v, c)] = (((v as u64 * 31 + c as u64 * 7 + salt) % 23) as f32 - 11.0) * 0.125;
        }
    }
    m
}

fn cagnet_info(graph: &CsrGraph, devices: usize, c: usize) -> CommInfo {
    build_comm_info(
        graph,
        Topology::pcie_host(devices),
        BuildOptions {
            backend: BackendKind::Cagnet { replication: c },
            ..BuildOptions::default()
        },
    )
}

/// Forward aggregation through both backends against the single-device
/// kernel, both aggregation kinds. Everything must match bitwise.
fn check_forward(graph: &CsrGraph, devices: usize, c: usize, cols: usize) {
    let n = graph.num_vertices();
    let info = cagnet_info(graph, devices, c);
    assert_eq!(info.backend, BackendKind::Cagnet { replication: c });
    let x = keyed_matrix(n, cols, 5);
    let per_device = info.dispatch_features(&x);
    for kind in [AggKind::Sum, AggKind::Mean] {
        let reference = match kind {
            AggKind::Sum => aggregate_sum(graph, &x, n),
            AggKind::Mean => aggregate_mean(graph, &x, n),
        };
        let results = run_cluster(&info, |handle| {
            let planned = backend_for(BackendKind::Planned);
            let cagnet = backend_for(info.backend);
            let p = planned.agg_forward(&handle, &per_device[handle.rank], kind)?;
            let g = cagnet.agg_forward(&handle, &per_device[handle.rank], kind)?;
            Ok((p, g))
        })
        .expect("healthy cluster");
        let planned: Vec<Matrix> = results.iter().map(|(p, _)| p.clone()).collect();
        let cagnet: Vec<Matrix> = results.into_iter().map(|(_, g)| g).collect();
        assert_eq!(
            info.collect_outputs(&planned),
            reference,
            "planned {kind:?} forward, p={devices} c={c} cols={cols}"
        );
        assert_eq!(
            info.collect_outputs(&cagnet),
            reference,
            "cagnet {kind:?} forward, p={devices} c={c} cols={cols}"
        );
    }
}

/// Backward aggregation: CAGNET must be bitwise against the
/// single-device kernel; the planned scatter folds remote contributions
/// along the SPST tree, so it gets a tight tolerance instead.
fn check_backward(graph: &CsrGraph, devices: usize, c: usize, cols: usize) {
    let n = graph.num_vertices();
    let info = cagnet_info(graph, devices, c);
    let grad = keyed_matrix(n, cols, 17);
    let per_device = info.dispatch_features(&grad);
    for kind in [AggKind::Sum, AggKind::Mean] {
        let reference = match kind {
            AggKind::Sum => aggregate_sum_backward(graph, &grad, n),
            AggKind::Mean => aggregate_mean_backward(graph, &grad, n),
        };
        let results = run_cluster(&info, |handle| {
            let planned = backend_for(BackendKind::Planned);
            let cagnet = backend_for(info.backend);
            let p = planned.agg_backward(&handle, per_device[handle.rank].clone(), kind)?;
            let g = cagnet.agg_backward(&handle, per_device[handle.rank].clone(), kind)?;
            Ok((p, g))
        })
        .expect("healthy cluster");
        let planned: Vec<Matrix> = results.iter().map(|(p, _)| p.clone()).collect();
        let cagnet: Vec<Matrix> = results.into_iter().map(|(_, g)| g).collect();
        assert_eq!(
            info.collect_outputs(&cagnet),
            reference,
            "cagnet {kind:?} backward, p={devices} c={c} cols={cols}"
        );
        let diff = info.collect_outputs(&planned).max_abs_diff(&reference);
        assert!(
            diff < 1e-4,
            "planned {kind:?} backward off by {diff}, p={devices} c={c} cols={cols}"
        );
    }
}

#[test]
fn forward_parity_across_the_grid() {
    for &(devices, c) in &[
        (2usize, 1usize),
        (2, 2),
        (3, 1),
        (4, 2),
        (4, 4),
        (6, 2),
        (8, 2),
    ] {
        let graph = erdos_renyi(41 + devices, 170, devices as u64);
        check_forward(&graph, devices, c, 3);
    }
}

#[test]
fn backward_parity_across_the_grid() {
    for &(devices, c) in &[(2usize, 1usize), (2, 2), (3, 1), (4, 2), (4, 4), (8, 2)] {
        let graph = erdos_renyi(39 + devices, 150, 100 + devices as u64);
        check_backward(&graph, devices, c, 2);
    }
}

#[test]
fn wide_features_on_eight_devices_with_replication() {
    let graph = erdos_renyi(64, 420, 9);
    check_forward(&graph, 8, 2, 16);
    check_backward(&graph, 8, 2, 16);
}

#[test]
fn backend_name_reports_which_path_runs() {
    assert_eq!(backend_for(BackendKind::Planned).name(), "planned");
    assert_eq!(
        backend_for(BackendKind::Cagnet { replication: 2 }).name(),
        "cagnet"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random graphs × device counts × widths × replications: the three
    /// aggregation paths stay bitwise-identical in forward and the
    /// CAGNET path bitwise in backward.
    #[test]
    fn random_graphs_agree_across_backends(
        n in 8usize..56,
        edges in 20usize..240,
        devices in 2usize..=8,
        cols in 1usize..6,
        seed in 0u64..1000,
        c_sel in 0usize..3,
    ) {
        let candidates: Vec<usize> =
            (1..=devices).filter(|&c| devices.is_multiple_of(c) && c <= 4).collect();
        let c = candidates[c_sel % candidates.len()];
        let graph = erdos_renyi(n.max(devices + 1), edges, seed);
        check_forward(&graph, devices, c, cols);
        check_backward(&graph, devices, c, cols);
    }
}
