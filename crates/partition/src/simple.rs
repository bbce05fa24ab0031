//! Baseline partitioners: random and block.
//!
//! These ignore the graph structure: the random one is the multilevel
//! partitioner's quality baseline in tests, and the block one gives
//! CAGNET its contiguous ascending ownership.

use dgcl_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Partition;

/// Assigns every vertex to a uniformly random part.
///
/// # Panics
///
/// Panics if `num_parts == 0`.
pub fn random_partition(graph: &CsrGraph, num_parts: usize, seed: u64) -> Partition {
    assert!(num_parts > 0, "need at least one part");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..graph.num_vertices())
        .map(|_| rng.gen_range(0..num_parts) as u32)
        .collect()
}

/// Assigns contiguous vertex-id ranges to parts (block partitioning).
///
/// # Panics
///
/// Panics if `num_parts == 0`.
pub fn block_partition(graph: &CsrGraph, num_parts: usize) -> Partition {
    assert!(num_parts > 0, "need at least one part");
    let n = graph.num_vertices();
    let base = n / num_parts;
    let rem = n % num_parts;
    let mut out = Vec::with_capacity(n);
    for p in 0..num_parts {
        let size = base + usize::from(p < rem);
        out.extend(std::iter::repeat_n(p as u32, size));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::balance;
    use dgcl_graph::generators::erdos_renyi;

    #[test]
    fn random_is_roughly_balanced() {
        let g = erdos_renyi(4000, 8000, 2);
        let p = random_partition(&g, 4, 3);
        assert!(balance(&p, 4) < 1.15);
    }

    #[test]
    fn block_covers_all_vertices_in_order() {
        let g = erdos_renyi(10, 20, 4);
        let p = block_partition(&g, 3);
        assert_eq!(p, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = erdos_renyi(50, 100, 5);
        assert_eq!(random_partition(&g, 4, 9), random_partition(&g, 4, 9));
    }
}
