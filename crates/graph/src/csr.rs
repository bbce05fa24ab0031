//! Compressed-sparse-row graph storage.

use std::sync::OnceLock;

use crate::{GraphError, VertexId};

/// A directed graph in compressed-sparse-row form.
///
/// `offsets` has `n + 1` entries; the out-neighbours of vertex `v` are
/// `targets[offsets[v]..offsets[v + 1]]`, sorted ascending with no
/// duplicates and no self-loops (the builder enforces this). GNN training
/// in this reproduction always uses symmetric graphs, but the type itself
/// supports arbitrary directed graphs.
///
/// The edge-reversed graph used by the gather-form aggregation backward
/// is computed once on first use and cached ([`CsrGraph::reversed`]);
/// equality, cloning and formatting ignore the cache.
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    reversed: OnceLock<Box<CsrGraph>>,
}

impl Clone for CsrGraph {
    fn clone(&self) -> Self {
        // The clone recomputes its reverse lazily if it needs one.
        Self {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            reversed: OnceLock::new(),
        }
    }
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for CsrGraph {}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("offsets", &self.offsets)
            .field("targets", &self.targets)
            .finish()
    }
}

impl CsrGraph {
    /// Constructs a graph directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `offsets` must be non-empty,
    /// monotonically non-decreasing, start at 0 and end at `targets.len()`,
    /// and every target must be a valid vertex id.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty"),
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().all(|&t| (t as usize) < n),
            "target out of range"
        );
        Self {
            offsets,
            targets,
            reversed: OnceLock::new(),
        }
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            reversed: OnceLock::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Out-neighbours of vertex `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The row offsets into [`CsrGraph::targets`], `num_vertices() + 1`
    /// long — with `targets`, the raw pattern the aggregation kernel
    /// (`dgcl_tensor::spmm_pattern_into`) walks.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Every adjacency list back to back, in vertex order.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Iterates over all directed edges as `(src, dst)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Whether edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Builds the transpose (all edges reversed).
    pub fn reverse(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut in_degree = vec![0usize; n];
        for &t in &self.targets {
            in_degree[t as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &in_degree {
            offsets.push(offsets.last().expect("non-empty") + d);
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for v in 0..n as VertexId {
            for &u in self.neighbors(v) {
                targets[cursor[u as usize]] = v;
                cursor[u as usize] += 1;
            }
        }
        // Per-row targets come out sorted because source vertices are
        // visited in ascending order.
        CsrGraph {
            offsets,
            targets,
            reversed: OnceLock::new(),
        }
    }

    /// The transpose, computed once on first call and cached for the
    /// graph's lifetime. The gather-form aggregation backward walks this
    /// on every layer of every epoch, so the O(V + E) build must not
    /// recur (clones start with an empty cache).
    pub fn reversed(&self) -> &CsrGraph {
        self.reversed.get_or_init(|| Box::new(self.reverse()))
    }

    /// Whether the graph equals its own transpose (undirected storage)
    /// with strictly ascending rows: [`CsrGraph::check_symmetric`].
    pub fn is_symmetric(&self) -> bool {
        self.check_symmetric().is_ok()
    }

    /// Checks that every row strictly ascends and that every edge's
    /// reverse is stored, in `O(V + E)` without building the transpose:
    /// sources `v` are walked in ascending order, so the edges into `u`
    /// arrive in the order `u`'s row lists them, each under `u`'s cursor.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnsortedRow`] for the first row that does not
    /// strictly ascend, else [`GraphError::MissingReverse`] naming one
    /// edge whose reverse is missing.
    pub fn check_symmetric(&self) -> Result<(), GraphError> {
        let n = self.num_vertices() as VertexId;
        if let Some(vertex) = (0..n).find(|&v| self.neighbors(v).windows(2).any(|w| w[0] >= w[1])) {
            return Err(GraphError::UnsortedRow { vertex });
        }
        let mut cursor = self.offsets[..n as usize].to_vec();
        let missing = |from, to| Err(GraphError::MissingReverse { from, to });
        for v in 0..n {
            for &u in self.neighbors(v) {
                let (u, at) = (u as usize, &mut cursor[u as usize]);
                match self.targets[*at..self.offsets[u + 1]].first() {
                    Some(&w) if w == v => *at += 1,
                    // `w` came earlier and did not list `u`.
                    Some(&w) if w < v => return missing(u as VertexId, w),
                    _ => return missing(v, u as VertexId),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> CsrGraph {
        // 0 -> 1 -> 2
        CsrGraph::from_parts(vec![0, 1, 2, 2], vec![1, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = chain3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!((g.offsets(), g.targets()), (&[0, 1, 2, 2][..], &[1, 2][..]));
    }

    #[test]
    fn edges_iterates_all_pairs() {
        let g = chain3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn reverse_flips_edges() {
        let g = chain3();
        let r = g.reverse();
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.neighbors(2), &[1]);
        assert_eq!(r.out_degree(0), 0);
    }

    #[test]
    fn cached_reversed_matches_reverse() {
        let g = chain3();
        assert_eq!(*g.reversed(), g.reverse());
        assert!(std::ptr::eq(g.reversed(), g.reversed()), "cache is stable");
        // Clones drop the cache but recompute the same transpose.
        assert_eq!(*g.clone().reversed(), g.reverse());
    }

    #[test]
    fn reverse_twice_is_identity() {
        let g = chain3();
        assert_eq!(g.reverse().reverse(), g);
    }

    #[test]
    fn has_edge_uses_binary_search() {
        let g = chain3();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn symmetric_detection() {
        assert!(!chain3().is_symmetric());
        let sym = CsrGraph::from_parts(vec![0, 1, 2], vec![1, 0]);
        assert!(sym.is_symmetric());
        let missing = |from, to| Err(GraphError::MissingReverse { from, to });
        assert_eq!(chain3().check_symmetric(), missing(0, 1));
        // 2 lists 0, which does not list 2; 1 ↔ 2 is whole.
        let g = CsrGraph::from_parts(vec![0, 0, 1, 3], vec![2, 0, 1]);
        assert_eq!(g.check_symmetric(), missing(2, 0));
        // Symmetric as a set, but row 0 descends.
        let g = CsrGraph::from_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]);
        assert_eq!(
            g.check_symmetric(),
            Err(GraphError::UnsortedRow { vertex: 0 })
        );
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn from_parts_rejects_bad_target() {
        let _ = CsrGraph::from_parts(vec![0, 1], vec![5]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
