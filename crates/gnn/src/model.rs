//! Multi-layer GNN networks.

use dgcl_graph::{CsrGraph, LayerBlock};
use dgcl_tensor::{Matrix, XavierInit};

use crate::aggregate::block_aggregate;
use crate::layers::{Architecture, Layer};

/// The forward of `layers` over one block chain (`layers[i]` over
/// `blocks[i]`), from the chain's input rows `h` (row `i` is
/// `blocks[0].src[i]`) to the outputs of its last `dst`; an empty chain
/// returns `h`. Rows are computed independently and a block row keeps its
/// neighbours in adjacency order, so a vertex's output row is the same
/// bits in whichever chain reaches it with the same neighbourhoods — a
/// fanout-∞ chain computes rows of [`GnnNetwork::forward`].
///
/// # Panics
///
/// Panics unless there is one block per layer and `h` is one `fin`-wide
/// row per `blocks[0].src` vertex.
pub fn forward_chain(layers: &mut [Layer], blocks: &[LayerBlock], mut h: Matrix) -> Matrix {
    assert_eq!(layers.len(), blocks.len(), "one block per layer");
    for (layer, block) in layers.iter_mut().zip(blocks) {
        let self_pos: Vec<usize> = block.dst_pos.iter().map(|&p| p as usize).collect();
        let agg = block_aggregate(layer.arch().agg_kind(), block, &h);
        h = layer.forward_agg(&h.gather_rows(&self_pos), agg);
    }
    h
}

/// A stacked K-layer GNN of one architecture.
///
/// The network runs in the locality-aware regime of [`Layer`]: forward
/// consumes full visible inputs (with remote rows refreshed between
/// layers by the caller's graph-allgather) and produces local outputs.
/// On a single device, pass `num_local == n` and identity gather hooks.
#[derive(Debug, Clone)]
pub struct GnnNetwork {
    layers: Vec<Layer>,
}

impl GnnNetwork {
    /// Builds a network with the given layer widths: `dims[0]` is the
    /// input feature width, `dims[i]` the output width of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(arch: Architecture, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let mut init = XavierInit::new(seed);
        let layers = dims
            .windows(2)
            .map(|w| Layer::new(arch, w[0], w[1], &mut init))
            .collect();
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (for the distributed runtime's
    /// gradient installation).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Single-device forward over the whole graph.
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches layer 0.
    pub fn forward(&mut self, adj: &CsrGraph, features: &Matrix) -> Matrix {
        let n = adj.num_vertices();
        let mut h = features.clone();
        for layer in &mut self.layers {
            h = layer.forward(adj, &h, n);
        }
        h
    }

    /// Single-device backward from the loss gradient; accumulates
    /// parameter gradients in every layer and returns the gradient with
    /// respect to the input features.
    pub fn backward(&mut self, adj: &CsrGraph, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(adj, &g);
        }
        g
    }

    /// SGD step on every layer.
    pub fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    /// A deep copy of every layer's parameters (weights then biases per
    /// layer) — the model half of a training checkpoint.
    pub fn snapshot_params(&self) -> Vec<Vec<Matrix>> {
        self.layers
            .iter()
            .map(|l| l.parameters().into_iter().cloned().collect())
            .collect()
    }

    /// Restores parameters captured by [`GnnNetwork::snapshot_params`]
    /// bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the layer count or any parameter shape mismatches.
    pub fn load_params(&mut self, params: &[Vec<Matrix>]) {
        assert_eq!(params.len(), self.layers.len(), "layer count");
        for (layer, p) in self.layers.iter_mut().zip(params) {
            layer.set_parameters(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use dgcl_graph::GraphBuilder;

    fn ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.add_edge(v, ((v + 1) as usize % n) as u32);
        }
        b.build_symmetric()
    }

    #[test]
    fn training_reduces_loss() {
        let g = ring(12);
        let mut init = XavierInit::new(11);
        let features = init.features(12, 8);
        let target = init.features(12, 4);
        for arch in [Architecture::Gcn, Architecture::CommNet, Architecture::Gin] {
            let mut net = GnnNetwork::new(arch, &[8, 6, 4], 21);
            let out = net.forward(&g, &features);
            let (loss0, grad) = mse_loss(&out, &target);
            net.backward(&g, &grad);
            net.step(0.01);
            let out = net.forward(&g, &features);
            let (loss1, _) = mse_loss(&out, &target);
            assert!(
                loss1 < loss0,
                "{arch:?}: loss did not decrease ({loss0} -> {loss1})"
            );
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let g = ring(8);
        let mut init = XavierInit::new(2);
        let features = init.features(8, 4);
        let mut a = GnnNetwork::new(Architecture::Gcn, &[4, 4, 2], 5);
        let mut b = GnnNetwork::new(Architecture::Gcn, &[4, 4, 2], 5);
        assert_eq!(a.forward(&g, &features), b.forward(&g, &features));
    }

    #[test]
    fn snapshot_and_load_resume_bitwise() {
        // Train 2 epochs, snapshot, train 2 more; separately load the
        // snapshot into a differently-seeded net and train the same 2.
        let g = ring(10);
        let mut init = XavierInit::new(6);
        let features = init.features(10, 5);
        let target = init.features(10, 3);
        let mut a = GnnNetwork::new(Architecture::Gcn, &[5, 4, 3], 1);
        for _ in 0..2 {
            let out = a.forward(&g, &features);
            let (_, grad) = mse_loss(&out, &target);
            a.backward(&g, &grad);
            a.step(0.01);
        }
        let snap = a.snapshot_params();
        let mut b = GnnNetwork::new(Architecture::Gcn, &[5, 4, 3], 999);
        b.load_params(&snap);
        for net in [&mut a, &mut b] {
            for _ in 0..2 {
                let out = net.forward(&g, &features);
                let (_, grad) = mse_loss(&out, &target);
                net.backward(&g, &grad);
                net.step(0.01);
            }
        }
        assert_eq!(a.forward(&g, &features), b.forward(&g, &features));
    }

    #[test]
    fn two_layer_output_width() {
        let g = ring(6);
        let mut init = XavierInit::new(3);
        let features = init.features(6, 10);
        let mut net = GnnNetwork::new(Architecture::Gin, &[10, 7, 3], 9);
        let out = net.forward(&g, &features);
        assert_eq!(out.shape(), (6, 3));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let _ = GnnNetwork::new(Architecture::Gcn, &[4], 0);
    }
}
