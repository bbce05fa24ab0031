//! Distributed node classification with planted communities.
//!
//! ```text
//! cargo run --release --example node_classification
//! ```
//!
//! Generates a community graph whose block id is the class label, trains
//! a 2-layer GraphSAGE across 4 simulated devices with softmax
//! cross-entropy, and reports loss and accuracy per epoch — the realistic
//! end-to-end task the paper's intro motivates (semi-supervised node
//! classification), run through DGCL's full communication stack.

use dgcl::{backend_for, build_comm_info, run_cluster, BuildOptions};
use dgcl_gnn::loss::{accuracy, softmax_cross_entropy};
use dgcl_gnn::{Architecture, GnnNetwork};
use dgcl_graph::generators::{community_rmat, RmatConfig};
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;

fn main() {
    let classes = 4usize;
    let n = 1200usize;
    // Four planted communities; the block id is the label.
    let graph = community_rmat(n, n * 6, classes, 0.9, 1.0, RmatConfig::social(), 3);
    let labels: Vec<usize> = (0..n).map(|v| (v * classes / n).min(classes - 1)).collect();
    // Features: a noisy one-hot of the label, so the task is learnable
    // but not trivial without aggregation.
    let mut init = XavierInit::new(1);
    let mut features = init.features(n, 8);
    for v in 0..n {
        features[(v, labels[v])] += 1.5;
    }

    let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
    let per_device_features = info.dispatch_features(&features);
    let device_labels: Vec<Vec<usize>> = (0..info.num_devices())
        .map(|d| {
            info.pg.local[d]
                .iter()
                .map(|&v| labels[v as usize])
                .collect()
        })
        .collect();

    let dims = [8usize, 16, classes];
    let epochs = 30;
    let lr = 2e-3;
    println!(
        "training GraphSAGE {dims:?} on {n} vertices / {} edges, 4 devices\n",
        graph.num_edges()
    );
    let outputs = run_cluster(&info, |handle| {
        let rank = handle.rank;
        let lg = handle.local_graph();
        let backend = backend_for(info.backend);
        let mut net = GnnNetwork::new(Architecture::Sage, &dims, 7);
        let mut last = Matrix::zeros(lg.num_local, classes);
        for epoch in 0..epochs {
            let mut h = per_device_features[rank].clone();
            for layer in net.layers_mut() {
                let full = handle.graph_allgather(&h)?;
                h = layer.forward(&lg.graph, &full, lg.num_local);
            }
            let (local_loss, grad_out) = softmax_cross_entropy(&h, &device_labels[rank]);
            let local_hits = (accuracy(&h, &device_labels[rank]) * lg.num_local as f64) as f32;
            last = h;
            let mut grad = grad_out;
            for layer in net.layers_mut().iter_mut().rev() {
                // The backend folds every consumer's share of the
                // aggregate gradient in; the self path lands after.
                let (grad_agg, direct) = layer.backward_agg(&grad);
                grad = backend.agg_backward(&handle, grad_agg, Architecture::Sage.agg_kind())?;
                if let Some(direct) = direct {
                    grad.add_assign(&direct);
                }
            }
            let mut mats: Vec<Matrix> = net
                .layers()
                .iter()
                .flat_map(|l| l.gradients().into_iter().cloned())
                .collect();
            mats.push(Matrix::from_rows(&[&[local_loss, local_hits]]));
            let reduced = handle.allreduce(mats)?;
            let (stats, grads) = reduced.split_last().expect("stats entry");
            let mut cursor = 0;
            for layer in net.layers_mut() {
                let count = layer.gradients().len();
                layer.set_gradients(&grads[cursor..cursor + count]);
                cursor += count;
            }
            net.step(lr);
            if rank == 0 && (epoch % 5 == 0 || epoch == epochs - 1) {
                let total_n = info.pg.partition.len() as f32;
                println!(
                    "epoch {epoch:>3}: loss {:>9.2}, accuracy {:.1}%",
                    stats[(0, 0)],
                    stats[(0, 1)] / total_n * 100.0
                );
            }
        }
        Ok(last)
    })
    .expect("healthy cluster");
    let logits = info.collect_outputs(&outputs);
    let final_acc = accuracy(&logits, &labels);
    println!(
        "\nfinal accuracy over all vertices: {:.1}%",
        final_acc * 100.0
    );
    assert!(final_acc > 0.9, "classification failed to converge");
}
