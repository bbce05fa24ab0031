//! Communication relation derived from a graph partition.
//!
//! For a GPU `d`, the paper defines `V_l(d)` — its local vertices, `V_r(d)`
//! — the remote vertices whose embeddings it needs (direct neighbours of
//! local vertices owned elsewhere), and records a tuple `(d_i, d_j, V_ij)`
//! per GPU pair with the embeddings `d_i` must send `d_j` (§4.1).
//! [`PartitionedGraph`] computes all of that, plus the re-indexed local
//! graph each simulated device trains on.

use dgcl_graph::{CsrGraph, VertexId};

use crate::Partition;

/// One multicast equivalence class: every vertex in `vertices` is owned
/// by part `src` and must reach exactly the parts in `dsts` (sorted
/// ascending). Produced by
/// [`PartitionedGraph::grouped_multicast_demands`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandClass {
    /// Owning part of every member vertex.
    pub src: u32,
    /// Destination parts, sorted ascending, never containing `src`.
    pub dsts: Vec<u32>,
    /// Member vertices, ascending.
    pub vertices: Vec<VertexId>,
}

/// A graph partitioned across `num_parts` devices, with the derived
/// communication relation.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// Number of parts (GPUs).
    pub num_parts: usize,
    /// Owner of every vertex.
    pub partition: Partition,
    /// Per part: owned vertices, sorted by global id.
    pub local: Vec<Vec<VertexId>>,
    /// Per part: remote vertices required as inputs, sorted by global id.
    pub remote: Vec<Vec<VertexId>>,
    /// `demands[i][j]`: vertices owned by `i` whose embeddings `j` needs
    /// (the paper's `V_ij`), sorted by global id. Empty when `i == j`.
    pub demands: Vec<Vec<Vec<VertexId>>>,
    local_graphs: Vec<LocalGraph>,
}

/// The re-indexed graph a single device trains on.
///
/// Local ids `0..num_local` are the device's own vertices (sorted by global
/// id), followed by its remote vertices (also sorted by global id).
/// Adjacency is stored for local vertices only — a device aggregates into
/// vertices it owns; remote rows are empty.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Adjacency over local ids. Rows for remote vertices are empty.
    pub graph: CsrGraph,
    /// How many of the ids are local (owned) vertices.
    pub num_local: usize,
    /// Local id to global id (locals first, then remotes).
    pub global_ids: Vec<VertexId>,
}

impl LocalGraph {
    /// Total vertices visible to the device (local + remote).
    pub fn num_total(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of remote vertices.
    pub fn num_remote(&self) -> usize {
        self.num_total() - self.num_local
    }

    /// Maps a global vertex id to the device-local id, or `None` if the
    /// vertex is not visible on this device.
    pub fn local_id(&self, global: VertexId) -> Option<usize> {
        let locals = &self.global_ids[..self.num_local];
        if let Ok(i) = locals.binary_search(&global) {
            return Some(i);
        }
        let remotes = &self.global_ids[self.num_local..];
        remotes
            .binary_search(&global)
            .ok()
            .map(|i| self.num_local + i)
    }
}

impl PartitionedGraph {
    /// Builds the communication relation for `graph` under `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the partition length mismatches the vertex count or a
    /// part id is out of range.
    pub fn new(graph: &CsrGraph, partition: Partition, num_parts: usize) -> Self {
        assert_eq!(
            partition.len(),
            graph.num_vertices(),
            "partition length must match vertex count"
        );
        assert!(
            partition.iter().all(|&p| (p as usize) < num_parts),
            "part id out of range"
        );
        let mut local: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        for (v, &p) in partition.iter().enumerate() {
            local[p as usize].push(v as VertexId);
        }
        // One walk per part lists its remotes and maps its rows. One id
        // table serves every part: each walk fills only its own entries
        // and resets them before returning.
        let mut ids = vec![UNLISTED; graph.num_vertices()];
        let (remote, local_graphs): (Vec<_>, Vec<_>) = local
            .iter()
            .map(|owned| map_rows(graph, owned, &mut ids))
            .unzip();
        // Demands: V_ij = local[i] ∩ remote[j].
        let mut demands: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); num_parts]; num_parts];
        for (j, remotes) in remote.iter().enumerate() {
            for &u in remotes {
                let i = partition[u as usize] as usize;
                demands[i][j].push(u);
            }
        }
        Self {
            num_parts,
            partition,
            local,
            remote,
            demands,
            local_graphs,
        }
    }

    /// The owner (GPU rank) of a global vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn owner(&self, v: VertexId) -> u32 {
        self.partition[v as usize]
    }

    /// The re-indexed graph for device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn local_graph(&self, d: usize) -> &LocalGraph {
        &self.local_graphs[d]
    }

    /// All multicast demands: for every vertex with at least one remote
    /// consumer, `(vertex, source part, destination parts)`. Destinations
    /// are sorted ascending.
    pub fn multicast_demands(&self) -> Vec<(VertexId, u32, Vec<u32>)> {
        let n = self.partition.len();
        let mut dests: Vec<Vec<u32>> = vec![Vec::new(); n];
        for row in &self.demands {
            for (j, vs) in row.iter().enumerate() {
                for &v in vs {
                    dests[v as usize].push(j as u32);
                }
            }
        }
        dests
            .into_iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(v, mut d)| {
                d.sort_unstable();
                (v as VertexId, self.partition[v], d)
            })
            .collect()
    }

    /// [`PartitionedGraph::multicast_demands`] grouped by multicast
    /// signature: all vertices sharing a `(source part, destination
    /// parts)` pair form one [`DemandClass`].
    ///
    /// A partition onto `k` parts admits at most `k * 2^(k-1)` distinct
    /// signatures, so on real graphs thousands of vertices collapse into
    /// a few hundred classes — the SPST planner exploits this to reuse
    /// one planned tree across a whole class. Classes are sorted by
    /// `(src, dsts)` and their member vertices ascending, so the result
    /// is deterministic.
    pub fn grouped_multicast_demands(&self) -> Vec<DemandClass> {
        use std::collections::HashMap;
        let mut index: HashMap<(u32, Vec<u32>), usize> = HashMap::new();
        let mut classes: Vec<DemandClass> = Vec::new();
        for (v, src, dsts) in self.multicast_demands() {
            match index.get(&(src, dsts.clone())) {
                Some(&c) => classes[c].vertices.push(v),
                None => {
                    index.insert((src, dsts.clone()), classes.len());
                    classes.push(DemandClass {
                        src,
                        dsts,
                        vertices: vec![v],
                    });
                }
            }
        }
        classes.sort_by(|a, b| (a.src, &a.dsts).cmp(&(b.src, &b.dsts)));
        classes
    }

    /// Per remote vertex of part `d` (aligned with `remote[d]`): how
    /// many of `d`'s local vertices list it as a neighbour. This is the
    /// number of local aggregation rows that consume the remote row —
    /// the sampler-hit-frequency proxy the feature-cache admission score
    /// multiplies by degree.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn remote_ref_counts(&self, graph: &CsrGraph, d: usize) -> Vec<u32> {
        let remotes = &self.remote[d];
        let mut counts = vec![0u32; remotes.len()];
        for &v in &self.local[d] {
            for &u in graph.neighbors(v) {
                if self.partition[u as usize] as usize != d {
                    let i = remotes
                        .binary_search(&u)
                        .expect("neighbour owned elsewhere must be in the remote set");
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    /// The global graph this partition was built from, re-assembled from
    /// the local graphs: each vertex's row is its owner's local row mapped
    /// back to global ids, in the same neighbour order. The result equals
    /// the input graph of [`PartitionedGraph::new`] row for row, so a
    /// structure derived from the graph can be built later without the
    /// caller keeping the graph.
    pub fn global_graph(&self) -> CsrGraph {
        let n = self.partition.len();
        let mut row = vec![0usize; n];
        for owned in &self.local {
            for (i, &v) in owned.iter().enumerate() {
                row[v as usize] = i;
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let edges = self
            .local_graphs
            .iter()
            .map(|lg| lg.graph.num_edges())
            .sum();
        let mut targets = Vec::with_capacity(edges);
        for (v, &p) in self.partition.iter().enumerate() {
            let lg = &self.local_graphs[p as usize];
            let locals = lg.graph.neighbors(row[v] as VertexId);
            targets.extend(locals.iter().map(|&l| lg.global_ids[l as usize]));
            offsets.push(targets.len());
        }
        CsrGraph::from_parts(offsets, targets)
    }

    /// Total number of vertex embeddings crossing partitions per layer
    /// (the sum of all `|V_ij|`).
    pub fn total_demand(&self) -> usize {
        self.demands
            .iter()
            .flat_map(|row| row.iter())
            .map(|v| v.len())
            .sum()
    }
}

/// An id-table entry for a vertex the current part has not listed.
const UNLISTED: u32 = u32::MAX;

/// Re-indexes one part's rows (`owned`, its vertices in ascending order)
/// over `owned ++ remote`, where `remote` lists the neighbours of `owned`
/// that other parts own, ascending; returns `remote` and the local graph.
/// `ids` must be all [`UNLISTED`] on entry and is left that way.
fn map_rows(graph: &CsrGraph, owned: &[VertexId], ids: &mut [u32]) -> (Vec<VertexId>, LocalGraph) {
    let num_local = owned.len();
    let base = num_local as u32;
    for (i, &v) in owned.iter().enumerate() {
        ids[v as usize] = i as u32;
    }
    let mut offsets = Vec::with_capacity(num_local + 1);
    offsets.push(0usize);
    let edges = owned.iter().map(|&v| graph.out_degree(v)).sum();
    let mut targets = Vec::with_capacity(edges);
    // Remotes in the order the walk meets them: until the list is sorted,
    // a row refers to a remote by `base +` its slot here.
    let mut found: Vec<VertexId> = Vec::new();
    for &v in owned {
        // Keep each row in the global graph's (ascending global id)
        // neighbour order rather than sorting the mapped local ids: the
        // aggregation kernels fold each row sequentially, so this makes
        // local aggregation accumulate in exactly the single-device
        // order — bitwise parity instead of a mere commutation.
        targets.extend(graph.neighbors(v).iter().map(|&u| {
            let id = &mut ids[u as usize];
            if *id == UNLISTED {
                *id = base + found.len() as u32;
                found.push(u);
            }
            *id
        }));
        offsets.push(targets.len());
    }
    for &v in owned.iter().chain(&found) {
        ids[v as usize] = UNLISTED;
    }
    // Number the remotes by global id: sort `(id, slot)` pairs, then move
    // every reference from its slot to its rank, unless the walk met the
    // remotes in id order. Local ids map to themselves, so the pass reads
    // a table without a branch.
    let mut by_id: Vec<u64> = found
        .iter()
        .enumerate()
        .map(|(slot, &u)| (u64::from(u) << 32) | slot as u64)
        .collect();
    by_id.sort_unstable();
    let mut renumber: Vec<u32> = (0..base + found.len() as u32).collect();
    let mut remote = found;
    for (rank, &key) in by_id.iter().enumerate() {
        let slot = (key & u64::from(u32::MAX)) as usize;
        renumber[num_local + slot] = base + rank as u32;
        remote[rank] = (key >> 32) as VertexId;
    }
    if by_id.windows(2).any(|w| w[0] as u32 > w[1] as u32) {
        for t in &mut targets {
            *t = renumber[*t as usize];
        }
    }
    for _ in 0..remote.len() {
        offsets.push(targets.len());
    }
    let mut global_ids = Vec::with_capacity(num_local + remote.len());
    global_ids.extend_from_slice(owned);
    global_ids.extend_from_slice(&remote);
    let local_graph = LocalGraph {
        graph: CsrGraph::from_parts(offsets, targets),
        num_local,
        global_ids,
    };
    (remote, local_graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::GraphBuilder;
    use proptest::prelude::{any, proptest, ProptestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The two-walk form of [`PartitionedGraph::new`]: one walk over
    /// every part's rows lists its remotes, a second maps the rows.
    fn two_walks(graph: &CsrGraph, partition: Partition, num_parts: usize) -> PartitionedGraph {
        let mut local: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        for (v, &p) in partition.iter().enumerate() {
            local[p as usize].push(v as VertexId);
        }
        let mut remote: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        let mut seen = vec![u32::MAX; graph.num_vertices()];
        for (d, owned) in local.iter().enumerate() {
            let mut set = Vec::new();
            for &v in owned {
                for &u in graph.neighbors(v) {
                    if partition[u as usize] as usize != d && seen[u as usize] != d as u32 {
                        seen[u as usize] = d as u32;
                        set.push(u);
                    }
                }
            }
            set.sort_unstable();
            remote[d] = set;
        }
        let mut demands: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); num_parts]; num_parts];
        for (j, remotes) in remote.iter().enumerate() {
            for &u in remotes {
                let i = partition[u as usize] as usize;
                demands[i][j].push(u);
            }
        }
        let mut to_local = vec![u32::MAX; graph.num_vertices()];
        let local_graphs = (0..num_parts)
            .map(|d| build_local_graph(graph, &local[d], &remote[d], &mut to_local))
            .collect();
        PartitionedGraph {
            num_parts,
            partition,
            local,
            remote,
            demands,
            local_graphs,
        }
    }

    /// Re-indexes `local`'s rows over `local ++ remote`. `to_local` maps
    /// global to local ids; it must be all `u32::MAX` on entry and is left
    /// that way on return.
    fn build_local_graph(
        graph: &CsrGraph,
        local: &[VertexId],
        remote: &[VertexId],
        to_local: &mut [u32],
    ) -> LocalGraph {
        let num_local = local.len();
        let mut global_ids = Vec::with_capacity(num_local + remote.len());
        global_ids.extend_from_slice(local);
        global_ids.extend_from_slice(remote);
        for (i, &global) in global_ids.iter().enumerate() {
            to_local[global as usize] = i as u32;
        }
        let total = global_ids.len();
        let mut offsets = Vec::with_capacity(total + 1);
        offsets.push(0usize);
        let edges = local.iter().map(|&v| graph.out_degree(v)).sum();
        let mut targets = Vec::with_capacity(edges);
        for &v in local {
            // Keep each row in the global graph's (ascending global id)
            // neighbour order rather than sorting the mapped local ids: the
            // aggregation kernels fold each row sequentially, so this makes
            // local aggregation accumulate in exactly the single-device
            // order — bitwise parity instead of a mere commutation.
            for &u in graph.neighbors(v) {
                let l = to_local[u as usize];
                assert!(l != u32::MAX, "neighbour must be local or remote");
                targets.push(l);
            }
            offsets.push(targets.len());
        }
        for _ in 0..remote.len() {
            offsets.push(targets.len());
        }
        for &global in &global_ids {
            to_local[global as usize] = u32::MAX;
        }
        LocalGraph {
            graph: CsrGraph::from_parts(offsets, targets),
            num_local,
            global_ids,
        }
    }

    fn assert_same(a: &PartitionedGraph, b: &PartitionedGraph) {
        assert_eq!(a.num_parts, b.num_parts);
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.local, b.local);
        assert_eq!(a.remote, b.remote);
        assert_eq!(a.demands, b.demands);
        for (d, (x, y)) in a.local_graphs.iter().zip(&b.local_graphs).enumerate() {
            assert_eq!(x.num_local, y.num_local, "part {d}");
            assert_eq!(x.global_ids, y.global_ids, "part {d}");
            assert_eq!(x.graph.offsets(), y.graph.offsets(), "part {d}");
            assert_eq!(x.graph.targets(), y.graph.targets(), "part {d}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random symmetric graphs (isolated vertices included) under
        /// random partitions that may leave parts empty.
        #[test]
        fn one_walk_matches_two_walks(
            n in 1usize..150,
            density in 0usize..6,
            parts in 1usize..7,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new(n);
            for _ in 0..n * density {
                b.add_edge(rng.gen_range(0..n) as VertexId, rng.gen_range(0..n) as VertexId);
            }
            let g = b.build_symmetric();
            let partition: Partition = (0..n).map(|_| rng.gen_range(0..parts) as u32).collect();
            let pg = PartitionedGraph::new(&g, partition.clone(), parts);
            assert_same(&pg, &two_walks(&g, partition, parts));
        }
    }

    #[test]
    fn one_walk_matches_two_walks_with_self_loops_and_a_partitioner() {
        // A borrowed CSR keeps self-loops and repeated neighbours.
        let raw = CsrGraph::from_parts(vec![0, 3, 5, 6, 6], vec![0, 1, 1, 0, 2, 1]);
        let skewed = dgcl_graph::Dataset::WikiTalk.generate(0.0005, 3);
        let parts = crate::multilevel::kway(&skewed, 4, 3);
        for (g, partition, k) in [(raw, vec![0, 1, 1, 0], 2), (skewed, parts, 4)] {
            let pg = PartitionedGraph::new(&g, partition.clone(), k);
            assert_same(&pg, &two_walks(&g, partition, k));
        }
    }

    /// The running example of Figure 1b: 12 vertices a..l partitioned onto
    /// 4 GPUs. Vertex ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10
    /// l=11.
    fn fig1_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(12);
        // Edges from Figure 1a (undirected reading of the example):
        // a-b, a-c, a-d, a-f, a-j, b-c, d-e, d-f, e-h, e-i, f-h, g-i,
        // h-i, j-k, j-l, k-l.
        for &(s, d) in &[
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 5),
            (0, 9),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 7),
            (4, 8),
            (5, 7),
            (6, 8),
            (7, 8),
            (9, 10),
            (9, 11),
            (10, 11),
        ] {
            b.add_edge(s, d);
        }
        b.build_symmetric()
    }

    fn fig1_partition() -> Partition {
        // GPU1: {a,b,c}, GPU2: {d,e,f}, GPU3: {g,h,i}, GPU4: {j,k,l}.
        vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    }

    #[test]
    fn fig1_local_and_remote_sets_match_paper() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        // §4.1: V_l(1) = {a, b, c} and V_r(1) = {d, f, j} (neighbours of
        // a on other GPUs; the paper also lists k — k is 2 hops from a in
        // Figure 1a, so the direct-neighbour set here is {d, f, j}).
        assert_eq!(pg.local[0], vec![0, 1, 2]);
        assert_eq!(pg.remote[0], vec![3, 5, 9]);
    }

    #[test]
    fn demands_are_symmetric_for_symmetric_graphs() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        // If i needs nothing from j, j needs nothing from i (the graph is
        // symmetric, so a cut edge creates demand both ways).
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    pg.demands[i][j].is_empty(),
                    pg.demands[j][i].is_empty(),
                    "asymmetric emptiness {i}->{j}"
                );
            }
        }
    }

    #[test]
    fn demand_vertices_are_owned_by_sender() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        for (i, row) in pg.demands.iter().enumerate() {
            for vs in row {
                for &v in vs {
                    assert_eq!(pg.owner(v) as usize, i);
                }
            }
        }
    }

    #[test]
    fn global_graph_round_trips() {
        let skewed = dgcl_graph::Dataset::WikiTalk.generate(0.0005, 3);
        let parts = crate::multilevel::kway(&skewed, 4, 3);
        for (g, partition) in [(fig1_graph(), fig1_partition()), (skewed, parts)] {
            let pg = PartitionedGraph::new(&g, partition, 4);
            let back = pg.global_graph();
            assert_eq!(back.offsets(), g.offsets());
            assert_eq!(back.targets(), g.targets());
        }
    }

    #[test]
    fn no_self_demand() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        for i in 0..4 {
            assert!(pg.demands[i][i].is_empty());
        }
    }

    #[test]
    fn multicast_demands_cover_total_demand() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        let multicast = pg.multicast_demands();
        let spread: usize = multicast.iter().map(|(_, _, d)| d.len()).sum();
        assert_eq!(spread, pg.total_demand());
        for (v, src, dsts) in &multicast {
            assert_eq!(pg.owner(*v), *src);
            assert!(!dsts.contains(src));
        }
    }

    #[test]
    fn grouped_demands_partition_the_multicast_set() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        let flat = pg.multicast_demands();
        let grouped = pg.grouped_multicast_demands();
        // Every flat demand appears in exactly one class with a matching
        // signature.
        let total: usize = grouped.iter().map(|c| c.vertices.len()).sum();
        assert_eq!(total, flat.len());
        for class in &grouped {
            assert!(!class.dsts.contains(&class.src));
            assert!(class.dsts.windows(2).all(|w| w[0] < w[1]));
            assert!(class.vertices.windows(2).all(|w| w[0] < w[1]));
            for &v in &class.vertices {
                let (_, src, dsts) = flat
                    .iter()
                    .find(|(fv, _, _)| *fv == v)
                    .expect("class member is a demand");
                assert_eq!(*src, class.src);
                assert_eq!(*dsts, class.dsts);
            }
        }
        // Signatures are unique and sorted.
        let sigs: Vec<_> = grouped.iter().map(|c| (c.src, c.dsts.clone())).collect();
        let mut sorted = sigs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sigs, sorted);
    }

    #[test]
    fn grouped_demands_merge_shared_signatures() {
        // Two hub vertices on part 0 with identical destination sets must
        // land in one class.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        let g = b.build_symmetric();
        let pg = PartitionedGraph::new(&g, vec![0, 0, 1, 1], 2);
        let grouped = pg.grouped_multicast_demands();
        let class0 = grouped
            .iter()
            .find(|c| c.src == 0)
            .expect("part 0 has demands");
        assert_eq!(class0.vertices, vec![0, 1]);
        assert_eq!(class0.dsts, vec![1]);
    }

    #[test]
    fn remote_ref_counts_count_consuming_local_rows() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        // GPU1 remotes are {d=3, f=5, j=9}; each is referenced only by
        // local vertex a=0.
        assert_eq!(pg.remote_ref_counts(&g, 0), vec![1, 1, 1]);
        // Sum over all remotes equals the total cut-edge endpoints seen
        // from the local side.
        for d in 0..4 {
            let counts = pg.remote_ref_counts(&g, d);
            assert_eq!(counts.len(), pg.remote[d].len());
            let total: u32 = counts.iter().sum();
            let cut: u32 = pg.local[d]
                .iter()
                .flat_map(|&v| g.neighbors(v))
                .filter(|&&u| pg.partition[u as usize] as usize != d)
                .count() as u32;
            assert_eq!(total, cut, "device {d}");
            assert!(counts.iter().all(|&c| c >= 1));
        }
    }

    #[test]
    fn local_graph_reindexing_round_trips() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        let lg = pg.local_graph(0);
        assert_eq!(lg.num_local, 3);
        assert_eq!(lg.num_remote(), 3);
        // Local id of global a=0 is 0; of remote j=9 is 3 + index in
        // remote list {3,5,9} = 5.
        assert_eq!(lg.local_id(0), Some(0));
        assert_eq!(lg.local_id(9), Some(5));
        assert_eq!(lg.local_id(6), None);
    }

    #[test]
    fn local_graph_preserves_degrees() {
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        for d in 0..4 {
            let lg = pg.local_graph(d);
            for (li, &global) in lg.global_ids[..lg.num_local].iter().enumerate() {
                assert_eq!(
                    lg.graph.out_degree(li as u32),
                    g.out_degree(global),
                    "device {d} vertex {global}"
                );
            }
            // Remote rows are empty.
            for li in lg.num_local..lg.num_total() {
                assert_eq!(lg.graph.out_degree(li as u32), 0);
            }
        }
    }

    #[test]
    fn graph_allgather_semantics_on_fig1() {
        // After graph Allgather, GPU 1 holds embeddings of
        // {a, b, c, d, f, j} (§4.2 of the paper).
        let g = fig1_graph();
        let pg = PartitionedGraph::new(&g, fig1_partition(), 4);
        let lg = pg.local_graph(0);
        let mut visible: Vec<VertexId> = lg.global_ids.clone();
        visible.sort_unstable();
        assert_eq!(visible, vec![0, 1, 2, 3, 5, 9]);
    }
}
