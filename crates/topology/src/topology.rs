//! The topology graph and its routing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{ConnId, DirectedHop, LinkKind, NodeId, NodeKind, PhysicalConn, Route};

/// A cluster communication topology: device nodes joined by physical
/// connections, with precomputed GPU-to-GPU routes.
///
/// Construct one with the built-in builders ([`Topology::dgx1`],
/// [`Topology::dgx1_pair_ib`], [`Topology::pcie_host`], [`Topology::fig6`])
/// or assemble a custom one through [`Topology::builder`].
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    nodes: Vec<NodeKind>,
    conns: Vec<PhysicalConn>,
    adjacency: Vec<Vec<ConnId>>,
    gpus: Vec<NodeId>,
    routes: Vec<Vec<Route>>,
}

/// Incrementally assembles a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<NodeKind>,
    conns: Vec<PhysicalConn>,
}

impl TopologyBuilder {
    /// Creates an empty builder with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            conns: Vec::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        id
    }

    /// Adds a full-duplex connection with the kind's default bandwidth.
    pub fn connect(&mut self, a: NodeId, b: NodeId, kind: LinkKind) -> ConnId {
        self.connect_with_bandwidth(a, b, kind, kind.bandwidth_gbps())
    }

    /// Adds a full-duplex connection with an explicit bandwidth in GB/s.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is unknown, the endpoints coincide, or the
    /// bandwidth is not positive.
    pub fn connect_with_bandwidth(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: LinkKind,
        bandwidth_gbps: f64,
    ) -> ConnId {
        assert!(a.index() < self.nodes.len(), "unknown node {a:?}");
        assert!(b.index() < self.nodes.len(), "unknown node {b:?}");
        assert_ne!(a, b, "self-connections are not allowed");
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        let id = ConnId(self.conns.len() as u32);
        self.conns.push(PhysicalConn {
            id,
            a,
            b,
            kind,
            bandwidth_gbps,
        });
        id
    }

    /// Finalises the topology, computing all GPU-to-GPU routes.
    ///
    /// # Panics
    ///
    /// Panics if the builder holds no GPU, GPU ranks are not dense from 0,
    /// or some GPU pair is unreachable.
    pub fn build(self) -> Topology {
        let mut gpus: Vec<(u32, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| match kind {
                NodeKind::Gpu { rank, .. } => Some((*rank, NodeId(i as u32))),
                _ => None,
            })
            .collect();
        gpus.sort_unstable();
        assert!(!gpus.is_empty(), "topology must contain at least one GPU");
        for (expect, &(rank, _)) in gpus.iter().enumerate() {
            assert_eq!(
                rank as usize, expect,
                "GPU ranks must be dense starting at 0"
            );
        }
        let gpus: Vec<NodeId> = gpus.into_iter().map(|(_, id)| id).collect();
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for conn in &self.conns {
            adjacency[conn.a.index()].push(conn.id);
            adjacency[conn.b.index()].push(conn.id);
        }
        let mut topo = Topology {
            name: self.name,
            nodes: self.nodes,
            conns: self.conns,
            adjacency,
            gpus,
            routes: Vec::new(),
        };
        topo.routes = (0..topo.gpus.len())
            .map(|src| {
                (0..topo.gpus.len())
                    .map(|dst| {
                        topo.route_nodes(topo.gpus[src], topo.gpus[dst])
                            .unwrap_or_else(|| panic!("GPU {src} cannot reach GPU {dst}"))
                    })
                    .collect()
            })
            .collect();
        topo
    }
}

/// Heap entry for widest-path routing: order by larger bottleneck first,
/// then fewer hops.
#[derive(PartialEq)]
struct WidestEntry {
    bottleneck: f64,
    hops: usize,
    node: NodeId,
}

impl Eq for WidestEntry {}

impl Ord for WidestEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bottleneck
            .partial_cmp(&other.bottleneck)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.hops.cmp(&self.hops))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for WidestEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Topology {
    /// Starts building a custom topology.
    pub fn builder(name: impl Into<String>) -> TopologyBuilder {
        TopologyBuilder::new(name)
    }

    /// Display name of the topology.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// All physical connections.
    pub fn conns(&self) -> &[PhysicalConn] {
        &self.conns
    }

    /// A physical connection by id.
    pub fn conn(&self, id: ConnId) -> &PhysicalConn {
        &self.conns[id.index()]
    }

    /// The node kind at `id`.
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// The node id of the GPU with `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn gpu_node(&self, rank: usize) -> NodeId {
        self.gpus[rank]
    }

    /// The machine hosting the GPU with `rank`.
    pub fn machine_of(&self, rank: usize) -> u32 {
        self.node(self.gpus[rank]).machine()
    }

    /// The socket hosting the GPU with `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn socket_of(&self, rank: usize) -> u32 {
        match self.node(self.gpus[rank]) {
            NodeKind::Gpu { socket, .. } => socket,
            _ => unreachable!("gpu table always points at GPU nodes"),
        }
    }

    /// Number of distinct machines in the topology.
    pub fn num_machines(&self) -> usize {
        let mut machines: Vec<u32> = self.nodes.iter().map(|n| n.machine()).collect();
        machines.sort_unstable();
        machines.dedup();
        machines.len()
    }

    /// GPU ranks grouped by machine, machines in ascending order.
    pub fn gpus_by_machine(&self) -> Vec<Vec<usize>> {
        let machines: Vec<u32> = (0..self.num_gpus()).map(|r| self.machine_of(r)).collect();
        let mut distinct = machines.clone();
        distinct.sort_unstable();
        distinct.dedup();
        distinct
            .iter()
            .map(|&m| {
                machines
                    .iter()
                    .enumerate()
                    .filter(|&(_, &gm)| gm == m)
                    .map(|(r, _)| r)
                    .collect()
            })
            .collect()
    }

    /// The precomputed direct route between two GPU ranks.
    ///
    /// # Panics
    ///
    /// Panics if a rank is out of range.
    pub fn route(&self, src_rank: usize, dst_rank: usize) -> &Route {
        &self.routes[src_rank][dst_rank]
    }

    /// Finds the direct route between two arbitrary nodes, or `None` if
    /// unreachable.
    ///
    /// The route maximises the bottleneck bandwidth and, among equals,
    /// minimises the hop count. Intermediate nodes are never GPUs or host
    /// memory: hardware peer-to-peer transfers are not relayed through
    /// other GPUs, and DRAM staging is an explicit planner decision.
    pub fn route_nodes(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        if src == dst {
            return Some(Route {
                hops: Vec::new(),
                bottleneck_gbps: f64::INFINITY,
            });
        }
        let n = self.nodes.len();
        let mut best_bw = vec![0.0f64; n];
        let mut best_hops = vec![usize::MAX; n];
        let mut back: Vec<Option<(NodeId, ConnId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best_bw[src.index()] = f64::INFINITY;
        best_hops[src.index()] = 0;
        heap.push(WidestEntry {
            bottleneck: f64::INFINITY,
            hops: 0,
            node: src,
        });
        while let Some(WidestEntry {
            bottleneck,
            hops,
            node,
        }) = heap.pop()
        {
            if bottleneck < best_bw[node.index()]
                || (bottleneck == best_bw[node.index()] && hops > best_hops[node.index()])
            {
                continue;
            }
            if node == dst {
                break;
            }
            // Only the source and destination may be GPUs or host memory.
            let relay_forbidden = node != src
                && matches!(
                    self.nodes[node.index()],
                    NodeKind::Gpu { .. } | NodeKind::HostMemory { .. }
                );
            if relay_forbidden {
                continue;
            }
            for &cid in &self.adjacency[node.index()] {
                let conn = &self.conns[cid.index()];
                let next = conn.other(node).expect("adjacency is consistent");
                let nb = bottleneck.min(conn.bandwidth_gbps);
                let nh = hops + 1;
                if nb > best_bw[next.index()]
                    || (nb == best_bw[next.index()] && nh < best_hops[next.index()])
                {
                    best_bw[next.index()] = nb;
                    best_hops[next.index()] = nh;
                    back[next.index()] = Some((node, cid));
                    heap.push(WidestEntry {
                        bottleneck: nb,
                        hops: nh,
                        node: next,
                    });
                }
            }
        }
        if best_bw[dst.index()] == 0.0 {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (prev, cid) = back[cur.index()].expect("back-pointers reach the source");
            let conn = &self.conns[cid.index()];
            hops.push(DirectedHop {
                conn: cid,
                forward: conn.a == prev,
            });
            cur = prev;
        }
        hops.reverse();
        Some(Route {
            hops,
            bottleneck_gbps: best_bw[dst.index()],
        })
    }

    /// The topology that remains after evicting the GPUs in `dead`:
    /// surviving GPUs are renumbered densely in ascending old-rank order,
    /// every non-GPU node survives, and every connection not touching an
    /// evicted GPU is kept with its bandwidth. Routes are recomputed.
    ///
    /// GPUs are never route relays, so removing one cannot disconnect the
    /// survivors — this is what makes eviction always well-formed. The
    /// elastic-recovery driver uses it to shrink the cluster after a rank
    /// failure before repartitioning and replanning.
    ///
    /// # Panics
    ///
    /// Panics if `dead` names an out-of-range rank or would leave no GPU.
    pub fn evict_gpus(&self, dead: &[usize]) -> Topology {
        for &r in dead {
            assert!(r < self.num_gpus(), "evicted rank {r} out of range");
        }
        let survivors: Vec<usize> = (0..self.num_gpus()).filter(|r| !dead.contains(r)).collect();
        assert!(!survivors.is_empty(), "eviction would leave no GPU");
        let mut b = Topology::builder(format!("{}-{}", self.name, survivors.len()));
        // Old NodeId -> new NodeId for every surviving node.
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for (id, kind) in self.nodes.iter().enumerate() {
            let new_kind = match *kind {
                NodeKind::Gpu {
                    rank,
                    machine,
                    socket,
                } => match survivors.binary_search(&(rank as usize)) {
                    Ok(new_rank) => NodeKind::Gpu {
                        rank: new_rank as u32,
                        machine,
                        socket,
                    },
                    Err(_) => continue,
                },
                other => other,
            };
            remap[id] = Some(b.add_node(new_kind));
        }
        for conn in &self.conns {
            if let (Some(a), Some(bn)) = (remap[conn.a.index()], remap[conn.b.index()]) {
                b.connect_with_bandwidth(a, bn, conn.kind, conn.bandwidth_gbps);
            }
        }
        b.build()
    }

    /// The host-memory node local to the GPU with `rank`, if the topology
    /// has one (used by the swap baseline).
    pub fn host_memory_of(&self, rank: usize) -> Option<NodeId> {
        let machine = self.machine_of(rank);
        let socket = self.socket_of(rank);
        self.nodes
            .iter()
            .enumerate()
            .find(|(_, k)| {
                matches!(k, NodeKind::HostMemory { machine: m, socket: s }
                    if *m == machine && *s == socket)
            })
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Whether two GPU ranks share an NVLink-connected route.
    pub fn is_nvlink_pair(&self, a: usize, b: usize) -> bool {
        let route = self.route(a, b);
        !route.hops.is_empty()
            && route
                .hops
                .iter()
                .all(|h| self.conn(h.conn).kind.is_nvlink())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gpu_line() -> Topology {
        let mut b = Topology::builder("line");
        let g0 = b.add_node(NodeKind::Gpu {
            rank: 0,
            machine: 0,
            socket: 0,
        });
        let g1 = b.add_node(NodeKind::Gpu {
            rank: 1,
            machine: 0,
            socket: 0,
        });
        b.connect(g0, g1, LinkKind::NvLink1);
        b.build()
    }

    #[test]
    fn single_hop_route() {
        let t = two_gpu_line();
        let r = t.route(0, 1);
        assert_eq!(r.hops.len(), 1);
        assert_eq!(r.bottleneck_gbps, LinkKind::NvLink1.bandwidth_gbps());
        assert!(r.hops[0].forward);
        assert!(!t.route(1, 0).hops[0].forward);
    }

    #[test]
    fn local_route_is_empty() {
        let t = two_gpu_line();
        assert!(t.route(0, 0).is_local());
    }

    #[test]
    fn routing_prefers_wider_path() {
        // g0 - g1 via slow direct Ethernet, or via switch with fast PCIe.
        let mut b = Topology::builder("widest");
        let g0 = b.add_node(NodeKind::Gpu {
            rank: 0,
            machine: 0,
            socket: 0,
        });
        let g1 = b.add_node(NodeKind::Gpu {
            rank: 1,
            machine: 0,
            socket: 0,
        });
        let sw = b.add_node(NodeKind::PcieSwitch { machine: 0 });
        b.connect(g0, g1, LinkKind::Ethernet);
        b.connect(g0, sw, LinkKind::Pcie);
        b.connect(sw, g1, LinkKind::Pcie);
        let t = b.build();
        let r = t.route(0, 1);
        assert_eq!(r.hops.len(), 2);
        assert_eq!(r.bottleneck_gbps, LinkKind::Pcie.bandwidth_gbps());
    }

    #[test]
    fn routing_never_relays_through_gpus() {
        // g0 - g1 - g2 NVLink chain plus a slow switch path g0 - sw - g2.
        // The direct route g0 -> g2 must avoid g1 even though NVLink is
        // faster: hardware p2p cannot bounce through a third GPU.
        let mut b = Topology::builder("norelay");
        let g0 = b.add_node(NodeKind::Gpu {
            rank: 0,
            machine: 0,
            socket: 0,
        });
        let g1 = b.add_node(NodeKind::Gpu {
            rank: 1,
            machine: 0,
            socket: 0,
        });
        let g2 = b.add_node(NodeKind::Gpu {
            rank: 2,
            machine: 0,
            socket: 0,
        });
        let sw = b.add_node(NodeKind::PcieSwitch { machine: 0 });
        b.connect(g0, g1, LinkKind::NvLink2);
        b.connect(g1, g2, LinkKind::NvLink2);
        b.connect(g0, sw, LinkKind::Pcie);
        b.connect(sw, g2, LinkKind::Pcie);
        let t = b.build();
        let r = t.route(0, 2);
        assert_eq!(r.bottleneck_gbps, LinkKind::Pcie.bandwidth_gbps());
        assert_eq!(r.hops.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot reach")]
    fn unreachable_pair_panics() {
        let mut b = Topology::builder("split");
        b.add_node(NodeKind::Gpu {
            rank: 0,
            machine: 0,
            socket: 0,
        });
        b.add_node(NodeKind::Gpu {
            rank: 1,
            machine: 0,
            socket: 0,
        });
        let _ = b.build();
    }

    #[test]
    fn evict_renumbers_and_keeps_connectivity() {
        let t = crate::Topology::dgx1();
        let s = t.evict_gpus(&[2, 5]);
        assert_eq!(s.num_gpus(), 6);
        // Survivors 0,1,3,4,6,7 renumber to 0..6; machines unchanged.
        for new_rank in 0..6 {
            let old = [0usize, 1, 3, 4, 6, 7][new_rank];
            assert_eq!(s.machine_of(new_rank), t.machine_of(old));
            assert_eq!(s.socket_of(new_rank), t.socket_of(old));
        }
        // Every surviving pair still routes.
        for a in 0..6 {
            for b in 0..6 {
                let r = s.route(a, b);
                assert!(a == b || !r.hops.is_empty(), "{a}->{b}");
            }
        }
        // NVLink structure is preserved where both endpoints survive:
        // old 0-1 (new 0-1) keeps its direct NVLink.
        assert!(s.is_nvlink_pair(0, 1));
    }

    #[test]
    fn evict_preserves_cross_machine_links() {
        let t = crate::Topology::dgx1_pair_ib();
        let s = t.evict_gpus(&[0]);
        assert_eq!(s.num_gpus(), 15);
        assert_eq!(s.num_machines(), 2);
        // New rank 7 is old rank 8 — first GPU of machine 1.
        assert_eq!(s.machine_of(7), 1);
        let r = s.route(0, 7);
        assert!(!r.hops.is_empty());
    }

    #[test]
    #[should_panic(expected = "no GPU")]
    fn evicting_everyone_panics() {
        let t = two_gpu_line();
        let _ = t.evict_gpus(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evicting_unknown_rank_panics() {
        let t = two_gpu_line();
        let _ = t.evict_gpus(&[9]);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ranks_panic() {
        let mut b = Topology::builder("gap");
        b.add_node(NodeKind::Gpu {
            rank: 1,
            machine: 0,
            socket: 0,
        });
        let _ = b.build();
    }
}
