//! K-hop neighbourhood expansion.
//!
//! Training a K-layer GNN for a vertex set requires the embeddings of the
//! set's K-hop neighbourhood (§2 of the paper). Replication-based
//! distributed training stores that whole neighbourhood per device, and the
//! *replication factor* — total stored vertices across devices divided by
//! the graph's vertex count — measures its cost (Figure 4).
//!
//! Two expansions are provided: the dense [`k_hop_closure`] mask, right
//! for whole-graph analyses like [`replication_factor`] where the closure
//! covers most vertices anyway, and the sparse [`k_hop_closure_sparse`]
//! visited-set, right for per-batch sampling where a handful of seeds on a
//! huge graph must not pay an `O(|V|)` allocation per call. Both return
//! [`GraphError`] on bad input instead of panicking, so a malformed batch
//! surfaces as a typed error through the runtime's poison protocol rather
//! than aborting the rank thread.

use std::collections::HashSet;
use std::fmt;

use crate::{CsrGraph, VertexId};

/// A malformed input to a graph traversal: out-of-range seeds, an
/// inconsistent partition, or a graph that is not symmetric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A seed vertex id is `>=` the graph's vertex count.
    SeedOutOfRange {
        /// The offending seed.
        seed: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// The partition vector's length differs from the vertex count.
    PartitionLengthMismatch {
        /// The partition vector's length.
        partition_len: usize,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// A part id in the partition vector is `>= num_parts`.
    PartIdOutOfRange {
        /// The offending part id.
        part: u32,
        /// The number of parts.
        num_parts: usize,
    },
    /// A row of the adjacency does not strictly ascend.
    UnsortedRow {
        /// The vertex whose row it is.
        vertex: VertexId,
    },
    /// The edge `from → to` is stored but `to → from` is not: the graph
    /// is not symmetric.
    MissingReverse {
        /// The edge's source.
        from: VertexId,
        /// The edge's target.
        to: VertexId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SeedOutOfRange { seed, num_vertices } => {
                write!(f, "seed {seed} out of range for {num_vertices} vertices")
            }
            GraphError::PartitionLengthMismatch {
                partition_len,
                num_vertices,
            } => write!(
                f,
                "partition length {partition_len} does not match vertex count {num_vertices}"
            ),
            GraphError::PartIdOutOfRange { part, num_parts } => {
                write!(f, "part id {part} out of range for {num_parts} parts")
            }
            GraphError::UnsortedRow { vertex } => {
                write!(f, "the row of vertex {vertex} does not strictly ascend")
            }
            GraphError::MissingReverse { from, to } => {
                write!(
                    f,
                    "edge {from} -> {to} has no reverse: the graph is not symmetric"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Returns the set of vertices within `hops` of `seeds` (including the
/// seeds themselves), as a boolean membership mask.
///
/// Costs `O(|V|)` per call for the mask alone; per-batch sampling over a
/// few seeds should use [`k_hop_closure_sparse`] instead.
pub fn k_hop_closure(
    graph: &CsrGraph,
    seeds: &[VertexId],
    hops: usize,
) -> Result<Vec<bool>, GraphError> {
    let n = graph.num_vertices();
    let mut member = vec![false; n];
    let mut frontier: Vec<VertexId> = Vec::new();
    for &s in seeds {
        if (s as usize) >= n {
            return Err(GraphError::SeedOutOfRange {
                seed: s,
                num_vertices: n,
            });
        }
        if !member[s as usize] {
            member[s as usize] = true;
            frontier.push(s);
        }
    }
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in graph.neighbors(v) {
                if !member[u as usize] {
                    member[u as usize] = true;
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok(member)
}

/// The k-hop neighbourhood of a seed set as a sorted visited-vertex list
/// with `O(log n)` membership queries — the cost scales with the closure,
/// not with the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseClosure {
    /// Visited vertices, sorted ascending, deduplicated.
    visited: Vec<VertexId>,
}

impl SparseClosure {
    /// The visited vertices, sorted ascending.
    pub fn visited(&self) -> &[VertexId] {
        &self.visited
    }

    /// Whether `v` is in the closure.
    pub fn contains(&self, v: VertexId) -> bool {
        self.visited.binary_search(&v).is_ok()
    }

    /// Number of visited vertices.
    pub fn len(&self) -> usize {
        self.visited.len()
    }

    /// Whether the closure is empty (no seeds).
    pub fn is_empty(&self) -> bool {
        self.visited.is_empty()
    }

    /// Expands to the dense membership mask (for parity checks).
    pub fn to_mask(&self, num_vertices: usize) -> Vec<bool> {
        let mut mask = vec![false; num_vertices];
        for &v in &self.visited {
            mask[v as usize] = true;
        }
        mask
    }
}

/// Sparse variant of [`k_hop_closure`]: expands the k-hop neighbourhood
/// touching only visited vertices and their edges, `O(closure + edges)`
/// rather than `O(|V|)`.
pub fn k_hop_closure_sparse(
    graph: &CsrGraph,
    seeds: &[VertexId],
    hops: usize,
) -> Result<SparseClosure, GraphError> {
    let n = graph.num_vertices();
    let mut seen: HashSet<VertexId> = HashSet::with_capacity(seeds.len() * 2);
    let mut frontier: Vec<VertexId> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        if (s as usize) >= n {
            return Err(GraphError::SeedOutOfRange {
                seed: s,
                num_vertices: n,
            });
        }
        if seen.insert(s) {
            frontier.push(s);
        }
    }
    let mut visited: Vec<VertexId> = frontier.clone();
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in graph.neighbors(v) {
                if seen.insert(u) {
                    next.push(u);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        visited.extend_from_slice(&next);
        frontier = next;
    }
    visited.sort_unstable();
    Ok(SparseClosure { visited })
}

/// Computes the replication factor for a partitioned graph and a K-layer
/// GNN: the total number of (assigned plus replicated) vertices kept by all
/// devices, divided by the vertex count.
///
/// `partition[v]` is the device owning vertex `v`; `num_parts` is the
/// device count.
pub fn replication_factor(
    graph: &CsrGraph,
    partition: &[u32],
    num_parts: usize,
    hops: usize,
) -> Result<f64, GraphError> {
    let n = graph.num_vertices();
    if partition.len() != n {
        return Err(GraphError::PartitionLengthMismatch {
            partition_len: partition.len(),
            num_vertices: n,
        });
    }
    if n == 0 {
        return Ok(0.0);
    }
    let mut seeds: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
    for (v, &p) in partition.iter().enumerate() {
        if (p as usize) >= num_parts {
            return Err(GraphError::PartIdOutOfRange { part: p, num_parts });
        }
        seeds[p as usize].push(v as VertexId);
    }
    let mut total_stored = 0usize;
    for part_seeds in &seeds {
        let member = k_hop_closure(graph, part_seeds, hops)?;
        total_stored += member.iter().filter(|&&m| m).count();
    }
    Ok(total_stored as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::hub_attachment;
    use crate::GraphBuilder;

    fn path5() -> CsrGraph {
        // 0 - 1 - 2 - 3 - 4 (undirected path).
        let mut b = GraphBuilder::new(5);
        for v in 0..4 {
            b.add_edge(v, v + 1);
        }
        b.build_symmetric()
    }

    #[test]
    fn zero_hops_is_just_seeds() {
        let g = path5();
        let m = k_hop_closure(&g, &[2], 0).unwrap();
        assert_eq!(m, vec![false, false, true, false, false]);
    }

    #[test]
    fn one_hop_adds_neighbors() {
        let g = path5();
        let m = k_hop_closure(&g, &[2], 1).unwrap();
        assert_eq!(m, vec![false, true, true, true, false]);
    }

    #[test]
    fn closure_saturates() {
        let g = path5();
        let m = k_hop_closure(&g, &[2], 10).unwrap();
        assert!(m.iter().all(|&x| x));
    }

    #[test]
    fn bad_seed_is_a_typed_error() {
        let g = path5();
        let err = k_hop_closure(&g, &[2, 9], 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::SeedOutOfRange {
                seed: 9,
                num_vertices: 5
            }
        );
        let err = k_hop_closure_sparse(&g, &[9], 0).unwrap_err();
        assert!(err.to_string().contains("seed 9 out of range"));
    }

    #[test]
    fn sparse_matches_dense_on_path() {
        let g = path5();
        for hops in 0..4 {
            let dense = k_hop_closure(&g, &[0, 3], hops).unwrap();
            let sparse = k_hop_closure_sparse(&g, &[0, 3], hops).unwrap();
            assert_eq!(sparse.to_mask(5), dense, "hops {hops}");
            for v in 0..5u32 {
                assert_eq!(sparse.contains(v), dense[v as usize]);
            }
        }
    }

    #[test]
    fn sparse_matches_dense_on_hub_graph() {
        // A skewed graph where the closure explodes quickly: the sparse
        // and dense expansions must agree vertex-for-vertex.
        let g = hub_attachment(2_000, 20, 0.8, 11);
        let seeds: Vec<VertexId> = (0..g.num_vertices() as u32)
            .filter(|v| v % 97 == 5)
            .collect();
        for hops in 0..3 {
            let dense = k_hop_closure(&g, &seeds, hops).unwrap();
            let sparse = k_hop_closure_sparse(&g, &seeds, hops).unwrap();
            assert_eq!(sparse.to_mask(g.num_vertices()), dense, "hops {hops}");
            assert_eq!(
                sparse.len(),
                dense.iter().filter(|&&m| m).count(),
                "hops {hops}"
            );
        }
    }

    #[test]
    fn sparse_visited_is_sorted_and_deduped() {
        let g = path5();
        let c = k_hop_closure_sparse(&g, &[3, 1, 3, 1], 1).unwrap();
        assert_eq!(c.visited(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn replication_factor_one_when_no_cut() {
        let g = path5();
        // All vertices in one part: nothing replicated.
        let f = replication_factor(&g, &[0, 0, 0, 0, 0], 1, 2).unwrap();
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_grows_with_hops() {
        let g = path5();
        let partition = [0, 0, 0, 1, 1];
        let f1 = replication_factor(&g, &partition, 2, 1).unwrap();
        let f2 = replication_factor(&g, &partition, 2, 2).unwrap();
        assert!(f2 >= f1);
        assert!(f1 > 1.0);
    }

    #[test]
    fn replication_factor_exact_on_path() {
        let g = path5();
        let partition = [0, 0, 0, 1, 1];
        // 1-hop: part 0 stores {0,1,2} + {3}; part 1 stores {3,4} + {2}.
        let f = replication_factor(&g, &partition, 2, 1).unwrap();
        assert!((f - 7.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_rejects_bad_partition() {
        let g = path5();
        let err = replication_factor(&g, &[0, 0, 0], 2, 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::PartitionLengthMismatch {
                partition_len: 3,
                num_vertices: 5
            }
        );
        let err = replication_factor(&g, &[0, 0, 0, 5, 0], 2, 1).unwrap_err();
        assert_eq!(
            err,
            GraphError::PartIdOutOfRange {
                part: 5,
                num_parts: 2
            }
        );
    }
}
