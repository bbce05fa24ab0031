//! One experiment per table and figure of the paper's evaluation.
//!
//! | Id | Artifact | Claim reproduced |
//! |---|---|---|
//! | `table1` | Table 1 | link speeds per connection type |
//! | `fig2` | Figure 2 | p2p communication dominates as GPUs grow |
//! | `table2` | Table 2 | p2p spends its time on slow links |
//! | `table3` | Table 3 | QPI contention halves attainable bandwidth |
//! | `fig4` | Figure 4 | replication factor grows with GPUs and hops |
//! | `fig7` | Figure 7 | per-epoch/communication, 3 models x 4 graphs |
//! | `fig8` | Figure 8 | GCN on Reddit, 1-16 GPUs |
//! | `fig9` | Figure 9 | GIN on Web-Google, 1-16 GPUs |
//! | `table5` | Table 5 | DGCL-R vs DGCL on 16 GPUs |
//! | `table6` | Table 6 | allgather on the PCIe-only box |
//! | `fig10` | Figure 10 | cost model tracks actual time linearly |
//! | `table7` | Table 7 | balanced NVLink/other time split |
//! | `table8` | Table 8 | SPST planning wall-clock |
//! | `fig11` | Figure 11 | send/recv tables are tiny vs training state |
//! | `table9` | Table 9 | non-atomic backward is faster |
//! | `ablation` | (extra) | SPST design-choice ablations |
//! | `compute` | (extra) | hot-path kernels: threaded matmul, parallel CSR aggregation, compiled allgather |
//! | `overlap` | (extra) | pipelined chunked collectives vs barriered schedule (simulated) |
//! | `collectives` | (extra) | allreduce algorithm zoo: autotuned choice vs per-size best/worst |
//! | `cagnet` | (extra) | backend crossover: planned gather vs CAGNET block SpMM, selector verdicts |
//! | `recovery` | (extra) | elastic recovery: warm replan vs cold plan, epochs lost per crash |
//! | `sampling` | (extra) | mini-batch sampled training vs full-batch, with model volume ratios |
//! | `serving` | (extra) | batched vs unbatched inference serving under open-loop load |
//! | `cache` | (extra) | hot-vertex feature cache: gather volume vs capacity, bitwise parity |

mod ablation;
mod cache;
mod cagnet;
mod collectives;
mod compute;
mod fig10;
mod fig11;
mod fig2;
mod fig4;
mod fig7;
mod fig89;
mod overlap;
mod recovery;
mod sampling;
mod serving;
mod table1;
mod table2;
mod table3;
mod table5;
mod table6;
mod table7;
mod table8;
mod table9;

use crate::harness::RunContext;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "table1",
    "fig2",
    "table2",
    "table3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "table5",
    "table6",
    "fig10",
    "table7",
    "table8",
    "fig11",
    "table9",
    "ablation",
    "compute",
    "overlap",
    "collectives",
    "cagnet",
    "recovery",
    "sampling",
    "serving",
    "cache",
];

/// Runs one experiment by id. Returns false for an unknown id.
pub fn run(id: &str, ctx: &mut RunContext) -> bool {
    match id {
        "table1" => table1::run(ctx),
        "fig2" => fig2::run(ctx),
        "table2" => table2::run(ctx),
        "table3" => table3::run(ctx),
        "fig4" => fig4::run(ctx),
        "fig7" => fig7::run(ctx),
        "fig8" => fig89::run_fig8(ctx),
        "fig9" => fig89::run_fig9(ctx),
        "table5" => table5::run(ctx),
        "table6" => table6::run(ctx),
        "fig10" => fig10::run(ctx),
        "table7" => table7::run(ctx),
        "table8" => table8::run(ctx),
        "fig11" => fig11::run(ctx),
        "table9" => table9::run(ctx),
        "ablation" => ablation::run(ctx),
        "compute" => compute::run(ctx),
        "overlap" => overlap::run(ctx),
        "collectives" => collectives::run(ctx),
        "cagnet" => cagnet::run(ctx),
        "recovery" => recovery::run(ctx),
        "sampling" => sampling::run(ctx),
        "serving" => serving::run(ctx),
        "cache" => cache::run(ctx),
        _ => return false,
    }
    true
}
