//! Built-in topologies used by the paper's evaluation.

use crate::{LinkKind, NodeId, NodeKind, Topology};

/// The NVLink hybrid cube-mesh of the DGX-1 (V100): `(a, b, bricks)`.
///
/// Every GPU has six NVLink bricks; GPUs 0–3 form a fully connected quad,
/// GPUs 4–7 form another, and four cross links join the quads so that every
/// pair is within two NVLink hops (the property §3 of the paper exploits).
const DGX1_NVLINKS: [(usize, usize, u8); 12] = [
    (0, 1, 1),
    (0, 2, 1),
    (0, 3, 2),
    (1, 2, 2),
    (1, 3, 1),
    (2, 3, 1),
    (4, 5, 1),
    (4, 6, 1),
    (4, 7, 2),
    (5, 6, 2),
    (5, 7, 1),
    (6, 7, 1),
];

/// Cross-quad NVLink bricks of the DGX-1. Together with the quad-internal
/// degree of 4 bricks this gives every GPU its 6 NVLink bricks.
const DGX1_CROSS_NVLINKS: [(usize, usize, u8); 4] = [(0, 4, 2), (1, 5, 2), (2, 6, 2), (3, 7, 2)];

fn nvlink_kind(bricks: u8) -> LinkKind {
    match bricks {
        1 => LinkKind::NvLink1,
        2 => LinkKind::NvLink2,
        _ => panic!("unsupported NVLink brick count {bricks}"),
    }
}

/// Adds one DGX-1-style machine (PCIe tree plus optional NVLink mesh) to a
/// builder. Returns the per-machine NIC node ids (one NIC per PCIe switch,
/// as in Figure 3 of the paper).
fn add_machine(
    b: &mut crate::topology::TopologyBuilder,
    machine: u32,
    num_gpus: usize,
    rank_base: u32,
    with_nvlink: bool,
) -> Vec<NodeId> {
    assert!((1..=8).contains(&num_gpus), "a machine hosts 1-8 GPUs");
    let sockets = if num_gpus > 4 { 2 } else { 1 };
    let mut cpus = Vec::new();
    let mut mems = Vec::new();
    for s in 0..sockets {
        let cpu = b.add_node(NodeKind::CpuSocket {
            machine,
            socket: s as u32,
        });
        let mem = b.add_node(NodeKind::HostMemory {
            machine,
            socket: s as u32,
        });
        b.connect(cpu, mem, LinkKind::HostDram);
        cpus.push(cpu);
        mems.push(mem);
    }
    if sockets == 2 {
        b.connect(cpus[0], cpus[1], LinkKind::Qpi);
    }
    // Two GPUs and one NIC per PCIe switch; switches alternate sockets
    // 0,0,1,1 as in Figure 3.
    let num_switches = num_gpus.div_ceil(2);
    let mut gpus = Vec::new();
    let mut nics = Vec::new();
    for sw_idx in 0..num_switches {
        let socket = if sockets == 2 && sw_idx >= 2 { 1 } else { 0 };
        let sw = b.add_node(NodeKind::PcieSwitch { machine });
        b.connect(cpus[socket], sw, LinkKind::Pcie);
        let nic = b.add_node(NodeKind::Nic { machine });
        b.connect(sw, nic, LinkKind::Pcie);
        nics.push(nic);
        for g_idx in (sw_idx * 2)..((sw_idx * 2 + 2).min(num_gpus)) {
            let gpu = b.add_node(NodeKind::Gpu {
                rank: rank_base + g_idx as u32,
                machine,
                socket: socket as u32,
            });
            b.connect(gpu, sw, LinkKind::Pcie);
            gpus.push(gpu);
        }
    }
    if with_nvlink {
        for &(x, y, bricks) in DGX1_NVLINKS.iter().chain(DGX1_CROSS_NVLINKS.iter()) {
            if x < num_gpus && y < num_gpus {
                b.connect(gpus[x], gpus[y], nvlink_kind(bricks));
            }
        }
    }
    nics
}

impl Topology {
    /// A single DGX-1: 8 V100 GPUs, NVLink hybrid cube mesh, two sockets,
    /// four PCIe switches, QPI between the CPUs (Figure 3 of the paper).
    pub fn dgx1() -> Topology {
        Self::dgx1_subset(8)
    }

    /// The first `num_gpus` GPUs of a DGX-1 (used for the 1/2/4-GPU sweeps
    /// of Figures 8 and 9). GPUs 0–3 form an NVLink clique, so with at most
    /// 4 GPUs every pair has a direct NVLink, matching the paper's
    /// observation that DGCL equals peer-to-peer there.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is not in `1..=8`.
    pub fn dgx1_subset(num_gpus: usize) -> Topology {
        let mut b = Topology::builder(format!("dgx1[{num_gpus}]"));
        add_machine(&mut b, 0, num_gpus, 0, true);
        b.build()
    }

    /// Two DGX-1 machines joined by a single shared InfiniBand connection
    /// (the paper's default 16-GPU configuration). All cross-machine
    /// traffic funnels through one IB NIC pair, which is why 16-GPU
    /// training scales poorly (Figures 8 and 9).
    pub fn dgx1_pair_ib() -> Topology {
        let mut b = Topology::builder("2x dgx1 + IB");
        let nics0 = add_machine(&mut b, 0, 8, 0, true);
        let nics1 = add_machine(&mut b, 1, 8, 8, true);
        // The paper: "the GPUs on one machine communicate with peers on the
        // other machine using the same IB NIC card".
        b.connect(nics0[0], nics1[0], LinkKind::Infiniband);
        b.build()
    }

    /// A PCIe-only server with `num_gpus` 1080-Ti GPUs (the paper's second
    /// hardware configuration, Table 6): same PCIe tree as the DGX-1 but no
    /// NVLink.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is not in `1..=8`.
    pub fn pcie_host(num_gpus: usize) -> Topology {
        let mut b = Topology::builder(format!("pcie[{num_gpus}]"));
        add_machine(&mut b, 0, num_gpus, 0, false);
        b.build()
    }

    /// The 4-GPU example of Figure 6: `d1-d2` and `d3-d4` joined by NVLink,
    /// each pair under its own PCIe switch and CPU socket, QPI in between.
    pub fn fig6() -> Topology {
        let mut b = Topology::builder("fig6");
        let cpu0 = b.add_node(NodeKind::CpuSocket {
            machine: 0,
            socket: 0,
        });
        let cpu1 = b.add_node(NodeKind::CpuSocket {
            machine: 0,
            socket: 1,
        });
        b.connect(cpu0, cpu1, LinkKind::Qpi);
        let sw0 = b.add_node(NodeKind::PcieSwitch { machine: 0 });
        let sw1 = b.add_node(NodeKind::PcieSwitch { machine: 0 });
        b.connect(cpu0, sw0, LinkKind::Pcie);
        b.connect(cpu1, sw1, LinkKind::Pcie);
        let mut gpus = Vec::new();
        for rank in 0..4u32 {
            let socket = rank / 2;
            let gpu = b.add_node(NodeKind::Gpu {
                rank,
                machine: 0,
                socket,
            });
            b.connect(gpu, if socket == 0 { sw0 } else { sw1 }, LinkKind::Pcie);
            gpus.push(gpu);
        }
        b.connect(gpus[0], gpus[1], LinkKind::NvLink1);
        b.connect(gpus[2], gpus[3], LinkKind::NvLink1);
        b.build()
    }

    /// Picks the evaluation topology for a GPU count the way the paper
    /// does: a DGX-1 subset up to 8 GPUs, two IB-connected DGX-1s for 16.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is not one of 1, 2, 4, 8, 16.
    pub fn for_gpu_count(num_gpus: usize) -> Topology {
        match num_gpus {
            1 | 2 | 4 | 8 => Topology::dgx1_subset(num_gpus),
            16 => Topology::dgx1_pair_ib(),
            _ => panic!("the evaluation uses 1/2/4/8/16 GPUs, got {num_gpus}"),
        }
    }

    /// An NVSwitch-style machine (DGX-2 generation, beyond the paper's
    /// hardware): every GPU connects to a central switch fabric with the
    /// full NV2 bandwidth, making the GPU network a non-blocking crossbar.
    /// Useful as a control: on a flat, homogeneous fabric SPST has little
    /// left to exploit over peer-to-peer.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is 0 or above 16.
    pub fn nvswitch(num_gpus: usize) -> Topology {
        assert!((1..=16).contains(&num_gpus), "1-16 GPUs per NVSwitch");
        let mut b = Topology::builder(format!("nvswitch[{num_gpus}]"));
        let cpu = b.add_node(NodeKind::CpuSocket {
            machine: 0,
            socket: 0,
        });
        let mem = b.add_node(NodeKind::HostMemory {
            machine: 0,
            socket: 0,
        });
        b.connect(cpu, mem, LinkKind::HostDram);
        // Model the switch fabric as a PCIe-switch node with NV2 spokes.
        let fabric = b.add_node(NodeKind::PcieSwitch { machine: 0 });
        b.connect(cpu, fabric, LinkKind::Pcie);
        for rank in 0..num_gpus as u32 {
            let gpu = b.add_node(NodeKind::Gpu {
                rank,
                machine: 0,
                socket: 0,
            });
            b.connect(gpu, fabric, LinkKind::NvLink2);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx1_shape() {
        let t = Topology::dgx1();
        assert_eq!(t.num_gpus(), 8);
        assert_eq!(t.num_machines(), 1);
        // NVLink bricks per GPU must be 6 on a full DGX-1.
        for rank in 0..8 {
            let gpu = t.gpu_node(rank);
            let bricks: usize = t
                .conns()
                .iter()
                .filter(|c| c.a == gpu || c.b == gpu)
                .map(|c| match c.kind {
                    LinkKind::NvLink1 => 1,
                    LinkKind::NvLink2 => 2,
                    _ => 0,
                })
                .sum();
            assert_eq!(bricks, 6, "GPU {rank} has {bricks} NVLink bricks");
        }
    }

    #[test]
    fn dgx1_every_pair_within_two_nvlink_hops() {
        // §3: "all GPU pairs in Figure 3 can be connected within two hops
        // of NVLink". Verify on the adjacency, not the route (routes do
        // not relay through GPUs).
        let t = Topology::dgx1();
        for a in 0..8 {
            for bk in 0..8 {
                if a == bk {
                    continue;
                }
                let direct = t.is_nvlink_pair(a, bk);
                let relayed = (0..8).any(|m| {
                    m != a && m != bk && t.is_nvlink_pair(a, m) && t.is_nvlink_pair(m, bk)
                });
                assert!(direct || relayed, "GPUs {a},{bk} beyond 2 NVLink hops");
            }
        }
    }

    #[test]
    fn dgx1_cross_socket_route_goes_through_qpi() {
        let t = Topology::dgx1();
        // GPU 1 and GPU 7 have no NVLink (cross links are 0-4,1-5,2-6,3-7);
        // their direct route crosses the QPI.
        assert!(!t.is_nvlink_pair(1, 7));
        let r = t.route(1, 7);
        assert!(r.hops.iter().any(|h| t.conn(h.conn).kind == LinkKind::Qpi));
        assert_eq!(r.bottleneck_gbps, LinkKind::Qpi.bandwidth_gbps());
    }

    #[test]
    fn quad_is_nvlink_clique() {
        let t = Topology::dgx1_subset(4);
        for a in 0..4 {
            for bk in 0..4 {
                if a != bk {
                    assert!(t.is_nvlink_pair(a, bk), "{a}-{bk} not NVLink");
                }
            }
        }
    }

    #[test]
    fn pair_topology_crosses_ib_exactly_once() {
        let t = Topology::dgx1_pair_ib();
        assert_eq!(t.num_gpus(), 16);
        assert_eq!(t.num_machines(), 2);
        let r = t.route(0, 8);
        let ib_hops = r
            .hops
            .iter()
            .filter(|h| t.conn(h.conn).kind == LinkKind::Infiniband)
            .count();
        assert_eq!(ib_hops, 1);
        assert_eq!(r.bottleneck_gbps, LinkKind::Infiniband.bandwidth_gbps());
    }

    #[test]
    fn pcie_host_has_no_nvlink() {
        let t = Topology::pcie_host(8);
        assert!(t.conns().iter().all(|c| !c.kind.is_nvlink()));
        assert_eq!(t.num_gpus(), 8);
    }

    #[test]
    fn fig6_matches_paper_example() {
        let t = Topology::fig6();
        assert_eq!(t.num_gpus(), 4);
        assert!(t.is_nvlink_pair(0, 1));
        assert!(t.is_nvlink_pair(2, 3));
        assert!(!t.is_nvlink_pair(0, 2));
        // d1 -> d3 goes PCIe - QPI - PCIe.
        let r = t.route(0, 2);
        assert!(r.hops.iter().any(|h| t.conn(h.conn).kind == LinkKind::Qpi));
    }

    #[test]
    fn host_memory_reachable_for_swap() {
        let t = Topology::dgx1();
        for rank in 0..8 {
            let mem = t.host_memory_of(rank).expect("dgx1 has host memory");
            let route = t.route_nodes(t.gpu_node(rank), mem).expect("reachable");
            assert!(!route.hops.is_empty());
        }
    }

    #[test]
    fn for_gpu_count_selects_topology() {
        assert_eq!(Topology::for_gpu_count(2).num_gpus(), 2);
        assert_eq!(Topology::for_gpu_count(16).num_gpus(), 16);
    }

    #[test]
    #[should_panic(expected = "1/2/4/8/16")]
    fn for_gpu_count_rejects_odd_counts() {
        let _ = Topology::for_gpu_count(3);
    }

    #[test]
    fn nvswitch_is_a_flat_crossbar() {
        let t = Topology::nvswitch(8);
        assert_eq!(t.num_gpus(), 8);
        for a in 0..8 {
            for bk in 0..8 {
                if a == bk {
                    continue;
                }
                let r = t.route(a, bk);
                assert_eq!(r.hops.len(), 2, "{a}->{bk}");
                assert_eq!(r.bottleneck_gbps, LinkKind::NvLink2.bandwidth_gbps());
            }
        }
    }
}
