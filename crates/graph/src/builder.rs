//! Edge-list builder for [`CsrGraph`].

use crate::{CsrGraph, VertexId};

/// Accumulates an edge list and finalises it into CSR form.
///
/// The builder removes self-loops and duplicate edges, and can optionally
/// symmetrise the edge set (adding the reverse of every edge), which is the
/// form GNN training uses.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `num_edges` edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::with_capacity(num_edges),
        }
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Records a directed edge `src -> dst`. Self-loops are dropped.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        if src != dst {
            self.edges.push((src, dst));
        }
    }

    /// Finalises into a directed CSR graph, deduplicating edges.
    pub fn build_directed(mut self) -> CsrGraph {
        Self::finish(self.num_vertices, std::mem::take(&mut self.edges))
    }

    /// Finalises into a symmetric CSR graph: the reverse of every edge is
    /// added before deduplication.
    pub fn build_symmetric(mut self) -> CsrGraph {
        let mut edges = std::mem::take(&mut self.edges);
        let forward = edges.len();
        edges.reserve(forward);
        for i in 0..forward {
            let (s, d) = edges[i];
            edges.push((d, s));
        }
        Self::finish(self.num_vertices, edges)
    }

    fn finish(n: usize, mut edges: Vec<(VertexId, VertexId)>) -> CsrGraph {
        edges.sort_unstable();
        edges.dedup();
        let mut degree = vec![0usize; n];
        for &(s, _) in &edges {
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().copied().expect("non-empty") + d);
        }
        let targets = edges.into_iter().map(|(_, d)| d).collect();
        CsrGraph::from_parts(offsets, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 1);
        b.add_edge(2, 0);
        let g = b.build_directed();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn symmetric_build_adds_reverse_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build_symmetric();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn isolated_vertices_keep_zero_degree() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 4);
        let g = b.build_directed();
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }
}
