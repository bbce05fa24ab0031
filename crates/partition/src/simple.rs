//! The block partitioner: it ignores the graph structure and gives
//! CAGNET its contiguous ascending ownership.

use dgcl_graph::CsrGraph;

use crate::Partition;

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
    use dgcl_graph::generators::erdos_renyi;

    #[test]
    fn block_covers_all_vertices_in_order() {
        let g = erdos_renyi(10, 20, 4);
        let p = block_partition(&g, 3);
        assert_eq!(p, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }
}
