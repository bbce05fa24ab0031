//! Serving benchmark: micro-batched vs unbatched inference under
//! synthetic open-loop load.
//!
//! The question the `dgcl::serving` micro-batcher must answer: does
//! coalescing concurrent requests into one flush buy throughput *and*
//! tail latency once the offered load passes what serial flushes can
//! sustain? The driver here is open-loop — requests arrive on a fixed
//! schedule whether or not earlier ones finished, so a server slower
//! than the arrival rate accumulates backlog and its tail latency shows
//! it (closed-loop drivers hide exactly this, the coordinated-omission
//! trap). The request mix is hot-key skewed (90% of queries on a
//! 12-vertex hot set), the concentration real inference traffic shows;
//! a flush dedups repeated seeds and overlapping closures, which is the
//! work an unbatched server redoes per request.
//!
//! Procedure per (graph, load) cell:
//!
//! 1. Calibrate: measure the unbatched server's sequential capacity
//!    (closed-loop, one request at a time).
//! 2. Offer `1.5x` and `3x` that capacity to both an unbatched server
//!    (`max_batch = 1`) and a micro-batched one, same request schedule.
//! 3. Record p50/p99 end-to-end latency and sustained QPS
//!    (requests / span from first enqueue to last completion).
//!
//! The batched server must beat the unbatched one on sustained QPS and
//! p99 in every cell (asserted). Results go to `BENCH_serving.json`;
//! `DGCL_BENCH_SMOKE=1` shrinks request counts for CI.

use std::time::{Duration, Instant};

use dgcl::serving::{InferenceServer, ServedFuture, ServingConfig};
use dgcl_gnn::{Architecture, GnnNetwork};
use dgcl_graph::{CsrGraph, Dataset, VertexId};
use dgcl_tensor::XavierInit;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

/// splitmix64 — deterministic request targets without a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hot vertices in the skewed request mix.
const HOT_SET: u64 = 12;
/// Requests (out of 10) landing on the hot set.
const HOT_OUT_OF_10: u64 = 9;

/// Skewed request target: 90% of queries hit a 12-vertex hot set, the
/// rest are uniform — the hot-key concentration of real inference
/// traffic, and the regime where a micro-batch dedups repeated seeds
/// and overlapping closures instead of recomputing them per request.
fn target_vertex(seed: u64, i: usize, n: usize) -> VertexId {
    let h = mix(seed ^ i as u64);
    if h % 10 < HOT_OUT_OF_10 {
        let slot = (h >> 32) % HOT_SET.min(n as u64);
        // Spread hot vertices across the id range so they do not all
        // share one partition-local neighborhood.
        ((slot * (n as u64 / HOT_SET.min(n as u64))) % n as u64) as VertexId
    } else {
        ((h >> 16) % n as u64) as VertexId
    }
}

/// Closed-loop sequential capacity of a server: serve `requests` one at
/// a time, return requests per second.
fn sequential_capacity(server: &InferenceServer, requests: usize, seed: u64) -> f64 {
    let n = server.num_vertices();
    let t = Instant::now();
    for i in 0..requests {
        let v = target_vertex(seed, i, n);
        server
            .query(v)
            .expect("in range")
            .wait()
            .expect("server alive");
    }
    requests as f64 / t.elapsed().as_secs_f64().max(1e-9)
}

/// Open-loop driver: enqueue `requests` queries on a fixed `offered_qps`
/// schedule, then wait for every reply. Returns (p50, p99, sustained
/// QPS, mean flush batch size).
fn drive_open_loop(
    server: &InferenceServer,
    requests: usize,
    offered_qps: f64,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let n = server.num_vertices();
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let start = Instant::now();
    let mut inflight: Vec<(Instant, ServedFuture)> = Vec::with_capacity(requests);
    for i in 0..requests {
        let due = start + interval * i as u32;
        // Hybrid wait: coarse sleep, then spin. Arrival intervals here
        // are tens of microseconds — below thread::sleep granularity —
        // and a driver that oversleeps throttles the offered load,
        // turning the open-loop measurement into a closed-loop one.
        let now = Instant::now();
        if due > now + Duration::from_micros(200) {
            std::thread::sleep(due - now - Duration::from_micros(100));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let v = target_vertex(seed, i, n);
        let enqueued = Instant::now();
        let fut = server.query(v).expect("in range");
        inflight.push((enqueued, fut));
    }
    let mut latencies = Vec::with_capacity(requests);
    let mut last_done = start;
    let mut batch_sum = 0usize;
    for (enqueued, fut) in inflight {
        let reply = fut.wait().expect("server alive");
        latencies.push((reply.completed - enqueued).as_secs_f64());
        if reply.completed > last_done {
            last_done = reply.completed;
        }
        batch_sum += reply.batch_size;
    }
    latencies.sort_by(f64::total_cmp);
    let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    let sustained = requests as f64 / (last_done - start).as_secs_f64().max(1e-9);
    let mean_batch = batch_sum as f64 / requests as f64;
    (pick(0.50), pick(0.99), sustained, mean_batch)
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    // Enough requests that an over-capacity server's backlog clearly
    // outgrows the batched server's bounded queue delay in the p99.
    let requests = if smoke { 300 } else { 900 };
    let calibration = if smoke { 60 } else { 200 };
    // A tight flush deadline: under backlog the size trigger fires
    // anyway, and the deadline only prices the final partial flush —
    // leaving it long would hand the batched p99 to the timer.
    let batched_cfg = ServingConfig {
        max_batch: 32,
        max_delay: Duration::from_micros(300),
        cache_rows: None,
    };

    let mut records: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph: CsrGraph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        // Wide layers so per-flush compute dominates thread wake-ups:
        // the regime where batching's closure-overlap amortization is
        // visible rather than drowned in channel latency.
        let mut init = XavierInit::new(ctx.seed);
        let features = init.features(nv, 64);
        let net = GnnNetwork::new(Architecture::Gcn, &[64, 64, 32], ctx.seed);

        // Calibrate against the unbatched server's own serial ceiling;
        // best-of-3 so one cold run does not depress the offered load.
        let capacity = {
            let server =
                InferenceServer::spawn(&graph, &features, &net, ServingConfig::unbatched());
            (0..3)
                .map(|_| sequential_capacity(&server, calibration, ctx.seed))
                .fold(0.0f64, f64::max)
        };

        for (load, factor) in [("1.5x", 1.5f64), ("3x", 3.0)] {
            let offered = capacity * factor;
            // Best-of-4 per metric, with the two policies' drives
            // interleaved inside each rep: a noisy scheduler period
            // then taxes both policies instead of deciding the cell.
            let policies = [
                ("unbatched", ServingConfig::unbatched()),
                ("batched", batched_cfg),
            ];
            let mut best = [(f64::MAX, f64::MAX, 0.0f64, 0.0f64); 2];
            for rep in 0..4u64 {
                for (slot, (_, cfg)) in policies.iter().enumerate() {
                    let server = InferenceServer::spawn(&graph, &features, &net, *cfg);
                    let (a, b, q, mb) = drive_open_loop(&server, requests, offered, ctx.seed ^ rep);
                    let e = &mut best[slot];
                    e.0 = e.0.min(a);
                    e.1 = e.1.min(b);
                    e.2 = e.2.max(q);
                    e.3 = e.3.max(mb);
                }
            }
            for (slot, (policy, _)) in policies.iter().enumerate() {
                let (p50, p99, sustained, mean_batch) = best[slot];
                let policy = *policy;
                rows.push(vec![
                    dataset.name().to_string(),
                    load.to_string(),
                    format!("{offered:.0}"),
                    policy.to_string(),
                    ms(p50),
                    ms(p99),
                    format!("{sustained:.0}"),
                    format!("{mean_batch:.1}"),
                ]);
                records.push(obj! {
                    "dataset": dataset.name(),
                    "load": load,
                    "offered_qps": offered,
                    "policy": policy,
                    "requests": requests,
                    "p50_seconds": p50,
                    "p99_seconds": p99,
                    "sustained_qps": sustained,
                    "mean_batch": mean_batch,
                });
            }
            let [(_, unbatched_p99, unbatched_qps, _), (_, batched_p99, batched_qps, _)] = best;
            if batched_qps <= unbatched_qps {
                violations.push(format!(
                    "{} {load}: batched QPS {batched_qps:.0} must beat unbatched {unbatched_qps:.0}",
                    dataset.name(),
                ));
            }
            if batched_p99 >= unbatched_p99 {
                violations.push(format!(
                    "{} {load}: batched p99 {batched_p99:.4}s must beat unbatched {unbatched_p99:.4}s",
                    dataset.name(),
                ));
            }
        }
    }
    print_table(
        "Serving: open-loop load, unbatched vs micro-batched (max_batch 32, 300us deadline)",
        &[
            "Dataset", "Load", "QPS in", "Policy", "p50 (ms)", "p99 (ms)", "QPS out", "Batch",
        ],
        &rows,
    );
    println!(
        "  (load is a multiple of the unbatched server's closed-loop capacity;\n   open-loop arrivals, so backlog shows up as tail latency, not hidden throttling.)"
    );

    write_artifact(
        "serving",
        "serving",
        obj! { "smoke": smoke, "cells": records },
    );
    assert!(
        violations.is_empty(),
        "micro-batching must win every cell:\n  {}",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_vertices_are_deterministic_and_in_range() {
        for i in 0..100 {
            let a = target_vertex(7, i, 33);
            let b = target_vertex(7, i, 33);
            assert_eq!(a, b);
            assert!((a as usize) < 33);
        }
    }
}
