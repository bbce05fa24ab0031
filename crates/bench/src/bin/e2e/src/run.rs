//! Runs one workload in one mode and returns its record.
//!
//! With tracing off a run measures the end-to-end metrics through the
//! library's own entry points only. With tracing on it re-runs the
//! workload through the benchmark's spanned copies in `sut.rs` and
//! reports the per-layer metrics; nothing measured there is reported as
//! an end-to-end number.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog;
use crate::loadgen::{latency_from_due, max_lateness, OpenLoop};
use crate::record::{LayerValue, WorkloadRecord};
use crate::stats::{median, percentile, summarize, Summary};
use crate::sut::{self, ms, set, Inputs, Layers, Server, TracedRun, Variant};
use crate::trace::{self, phase_totals_ms, RankTrace, Span};
use crate::workloads::{
    query_target, Kind, Spec, HEAVY_QPS, LATENCY_LIMIT_MS, LIGHT_QPS, SAT_BURST,
};

/// How one invocation asked a workload to be run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Tiny graphs and one repetition of everything: a functional check.
    pub smoke: bool,
    pub trace: bool,
}

/// What a run produced beside its record.
pub struct Outcome {
    pub record: WorkloadRecord,
    /// Chrome-trace JSON of the traced run's spans.
    pub chrome_trace: Option<String>,
}

/// Counts operations attempted and failed: train calls, builds, queries
/// and correctness checks alike.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // A flood of identical failures (every query of a dead
            // server) is one finding, not sixty thousand lines.
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// Runs `spec` as `opts` asks.
///
/// # Errors
///
/// A message if the system failed in a way that leaves nothing to
/// measure (a training call returned an error).
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut record = WorkloadRecord {
        name: spec.name.to_string(),
        traced: opts.trace,
        ..WorkloadRecord::default()
    };
    let scale = if opts.smoke {
        spec.smoke_scale
    } else {
        spec.scale
    };
    let inp = sut::inputs(spec, scale, opts.seed);
    let mut layers = Layers::new();
    let mut chrome_trace = None;
    let e2e = match (spec.kind, opts.trace) {
        (Kind::Serving, _) => serve(spec, opts, &inp, &mut ops, &mut layers),
        (_, false) => train_e2e(spec, opts, &inp, &mut ops)?,
        (_, true) => {
            chrome_trace = Some(train_traced(
                spec,
                opts,
                scale,
                &inp,
                &mut ops,
                &mut layers,
            )?);
            Vec::new()
        }
    };
    if opts.trace {
        for def in catalog::PER_LAYER {
            // A layer the workload bypasses reads 0.
            let value = layers.remove(def.name).unwrap_or(0.0);
            ops.check(value.is_finite(), || format!("{} is not finite", def.name));
            record.per_layer.push(LayerValue {
                name: def.name.to_string(),
                unit: def.unit.to_string(),
                value: if value.is_finite() { value } else { 0.0 },
            });
        }
        assert!(
            layers.is_empty(),
            "metrics missing from the catalog: {:?}",
            layers.keys()
        );
    } else {
        for (name, summary) in e2e {
            ops.check(summary.median.is_finite() && summary.median > 0.0, || {
                format!("{name} is {}", summary.median)
            });
            record.push_e2e(name, summary);
        }
    }
    record.ops_attempted = ops.attempted;
    record.ops_failed = ops.failed;
    record.failures = ops.failures;
    Ok(Outcome {
        record,
        chrome_trace,
    })
}

/// The process's peak resident set (`VmHWM`) in MB. One process runs one
/// workload, and a run reads this right after its timed window, before
/// the whole-graph references its last checks compute, so the peak is the
/// system's plus what the load generator must hold while it runs: the
/// inputs, one reference report per configuration, the pending replies
/// and latencies of one serving phase.
fn peak_rss_mb() -> Summary {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(Summary::single(0.0), |kb| Summary::single(kb / 1024.0))
}

/// Sets up repeatedly and returns the last result with every wall time
/// in seconds: at least three set-ups, then as many more as fit in four
/// seconds, so that a set-up of tens of milliseconds is not reported
/// from a single noisy sample. Each result is dropped before the next
/// set-up starts, so `peak_rss_mb` holds one of them.
fn timed_setups<T>(smoke: bool, ops: &mut Ops, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let built = setup();
        walls.push(t.elapsed().as_secs_f64());
        ops.attempted += 1;
        let enough = walls.len() >= 3 && started.elapsed().as_secs_f64() >= 4.0;
        if smoke || enough || walls.len() >= 15 {
            return (built, walls);
        }
    }
}

/// Bit-for-bit equality; `==` on floats would call `-0.0` and `0.0` equal.
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_bits(a: &sut::TrainReport, b: &sut::TrainReport) -> bool {
    bits_eq(&a.epoch_losses, &b.epoch_losses) && bits_eq(a.outputs.as_slice(), b.outputs.as_slice())
}

/// Epochs in one timed call. Smoke keeps the three the single-device
/// comparison needs.
fn epochs_per_call(spec: &Spec, smoke: bool) -> usize {
    if smoke {
        spec.epochs_per_call.min(3)
    } else {
        spec.epochs_per_call
    }
}

/// A training workload's two configurations, each with the report every
/// later call of it must reproduce bit for bit.
struct Configs<'a> {
    info: &'a sut::CommInfo,
    inp: &'a Inputs,
    epochs: usize,
    /// `(config, reference report)`: the default first, then the alternative.
    both: [(sut::TrainConfig, sut::TrainReport); 2],
}

impl<'a> Configs<'a> {
    /// Makes the reference calls and the correctness checks every
    /// training run starts with. The calls double as the discarded
    /// warm-up (the first call of a process runs 1.7x slower from page
    /// faults alone).
    fn new(
        spec: &Spec,
        info: &'a sut::CommInfo,
        inp: &'a Inputs,
        epochs: usize,
        ops: &mut Ops,
    ) -> Result<Self, String> {
        let cfg_a = sut::train_config(spec, epochs, Variant::Default);
        let cfg_b = sut::train_config(spec, epochs, Variant::Alt);
        let ref_a = sut::train(info, inp, &cfg_a)?;
        let ref_b = sut::train(info, inp, &cfg_b)?;
        ops.attempted += 2;
        let what = match spec.kind {
            Kind::FullBatch => "overlap on and off",
            _ => "cache Auto and Off",
        };
        ops.check(same_bits(&ref_a, &ref_b), || {
            format!("{what} differ in losses or outputs")
        });
        if spec.kind == Kind::Sampled {
            let l = &ref_a.epoch_losses;
            ops.check(l.last() < l.first(), || {
                format!("sampled loss did not fall: {l:?}")
            });
        }
        Ok(Self {
            info,
            inp,
            epochs,
            both: [(cfg_a, ref_a), (cfg_b, ref_b)],
        })
    }

    /// Full-batch only: the first three epoch losses against the
    /// single-worker baseline. Made after the timed window and the
    /// `peak_rss_mb` reading, which a whole-graph run on one worker is
    /// no part of.
    fn check_single_device(&self, spec: &Spec, ops: &mut Ops) {
        if spec.kind != Kind::FullBatch {
            return;
        }
        let single = sut::train_one_device(self.inp, &sut::train_config(spec, 3, Variant::Alt));
        let distributed = &self.both[0].1.epoch_losses;
        for (e, (s, d)) in single.epoch_losses.iter().zip(distributed).enumerate() {
            ops.check((s - d).abs() <= 1e-2 * s.abs().max(1.0), || {
                format!("epoch {e}: single-device loss {s} vs distributed {d}")
            });
        }
    }

    /// One timed call of each configuration, back to back so that a slow
    /// stretch of the machine taxes both; pushes each call's wall time
    /// per epoch in milliseconds.
    fn round(&self, ops: &mut Ops, op: &mut Vec<f64>, alt: &mut Vec<f64>) -> Result<(), String> {
        for ((cfg, reference), samples) in self.both.iter().zip([op, alt]) {
            let t = Instant::now();
            let report = sut::train(self.info, self.inp, cfg)?;
            samples.push(ms(t.elapsed()) / self.epochs as f64);
            ops.attempted += 1;
            ops.check(same_bits(&report, reference), || {
                "two identical calls differ in losses or outputs".to_string()
            });
        }
        Ok(())
    }
}

/// Training with tracing off: `setup_s`, `op_ms`, `op_alt_ms` and
/// `throughput`, each the median over the window's calls, and
/// `peak_rss_mb`.
fn train_e2e(
    spec: &Spec,
    opts: &RunOpts,
    inp: &Inputs,
    ops: &mut Ops,
) -> Result<Vec<(&'static str, Summary)>, String> {
    let (info, setups) = timed_setups(opts.smoke, ops, || sut::build(&inp.graph, spec.topo));
    let configs = Configs::new(spec, &info, inp, epochs_per_call(spec, opts.smoke), ops)?;
    let (mut op, mut alt) = (Vec::new(), Vec::new());
    let window = Instant::now();
    loop {
        configs.round(ops, &mut op, &mut alt)?;
        if opts.smoke || window.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb();
    configs.check_single_device(spec, ops);
    // The rate a user trains at as shipped: the `op_ms` calls, stated as
    // epochs per second, because every workload reports every metric.
    let rate: Vec<f64> = op.iter().map(|ms| 1e3 / ms).collect();
    Ok(vec![
        ("setup_s", summarize(&setups)),
        ("op_ms", summarize(&op)),
        ("op_alt_ms", summarize(&alt)),
        ("throughput", summarize(&rate)),
        ("peak_rss_mb", peak_rss),
    ])
}

/// Per-epoch phase times of one traced call: each rank's span totals
/// divided by the epoch count, then combined over ranks.
fn phase_metrics(run: &TracedRun, epochs: usize) -> Layers {
    let mut m = Layers::new();
    let e = epochs as f64;
    let comm = ["gather", "scatter", "allreduce"];
    let mut sums: BTreeMap<(&str, i32), f64> = BTreeMap::new();
    let (mut comm_per_rank, mut share, mut attributed, mut calls) = (Vec::new(), 0.0, 0.0, 0.0);
    for rank in &run.ranks {
        let in_epochs = |s: &Span| (s.epoch as usize) < epochs;
        let totals = phase_totals_ms(rank.spans(), |s| s.parent == "epoch" && in_epochs(s));
        let epoch_ms: f64 = rank
            .spans()
            .iter()
            .filter(|s| s.phase == "epoch")
            .map(Span::millis)
            .sum();
        let rank_comm: f64 = totals
            .iter()
            .filter(|((p, _), _)| comm.contains(p))
            .map(|(_, v)| v)
            .sum();
        comm_per_rank.push(rank_comm / e);
        share += rank_comm / epoch_ms;
        attributed += totals.values().sum::<f64>() / epoch_ms;
        calls += rank
            .spans()
            .iter()
            .filter(|s| comm.contains(&s.phase) && in_epochs(s))
            .count() as f64
            / e;
        for (key, v) in totals {
            *sums.entry(key).or_insert(0.0) += v / e;
        }
    }
    let ranks = run.ranks.len() as f64;
    for (phase, name) in [
        ("gather", "runtime.gather_ms"),
        ("scatter", "runtime.scatter_ms"),
        ("allreduce", "runtime.allreduce_ms"),
        ("agg_fwd", "gnn.agg_fwd_ms"),
        ("agg_bwd", "gnn.agg_bwd_ms"),
        ("dense_fwd", "gnn.dense_fwd_ms"),
        ("dense_bwd", "gnn.dense_bwd_ms"),
        ("loss", "gnn.loss_ms"),
        ("step", "gnn.step_ms"),
    ] {
        let of_phase = |layer: Option<i32>| -> f64 {
            sums.iter()
                .filter(|((p, l), _)| *p == phase && layer.is_none_or(|want| *l == want))
                .map(|(_, v)| v)
                .sum::<f64>()
                / ranks
        };
        set(&mut m, name, of_phase(None));
        if ["gather", "scatter", "agg_fwd", "agg_bwd"].contains(&phase) {
            for l in 0..2 {
                set(&mut m, &format!("{name}.l{l}"), of_phase(Some(l)));
            }
        }
    }
    let fastest = comm_per_rank.iter().copied().fold(f64::INFINITY, f64::min);
    let wait: f64 = comm_per_rank.iter().map(|c| c - fastest).sum::<f64>() / ranks;
    set(&mut m, "runtime.wait_ms", wait);
    set(&mut m, "runtime.comm_share", share / ranks);
    set(&mut m, "runtime.collective_calls", calls / ranks);
    set(&mut m, "trace.epoch_attributed_frac", attributed / ranks);
    set(&mut m, "fabric.pool_bufs", run.pool.0 as f64);
    set(&mut m, "fabric.pool_bytes", run.pool.1 as f64);
    set(&mut m, "core.allreduce_tune_ms", run.tune_ms);
    set(&mut m, "trace.epoch_ms", ms(run.wall) / e);
    m
}

/// Training with tracing on: every per-layer metric the workload has.
/// Returns the Chrome trace of the set-up spans and the last traced call.
fn train_traced(
    spec: &Spec,
    opts: &RunOpts,
    scale: f64,
    inp: &Inputs,
    ops: &mut Ops,
    m: &mut Layers,
) -> Result<String, String> {
    let origin = Instant::now();
    let (info, setups) = timed_setups(opts.smoke, ops, || sut::build(&inp.graph, spec.topo));
    let setup_ms = median(&setups) * 1e3;
    let mut setup_trace = RankTrace::new(0, origin, 16);
    sut::traced_setup(inp, spec, &mut setup_trace, m);
    let attributed: f64 = setup_trace.spans().iter().map(Span::millis).sum();
    set(
        m,
        "trace.setup_unattributed_frac",
        1.0 - attributed / setup_ms,
    );

    let epochs = epochs_per_call(spec, opts.smoke);
    let configs = Configs::new(spec, &info, inp, epochs, ops)?;
    let [(cfg_a, ref_a), (cfg_b, ref_b)] = &configs.both;

    // Three kinds of call alternate in one window: the workload's two
    // configurations untraced, and (full-batch only) the spanned copy of
    // the barriered body, whose overhead is judged against the untraced
    // barriered calls made beside it.
    let (mut op, mut alt, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut phase_runs: Vec<Layers> = Vec::new();
    let mut spans: Vec<Span> = setup_trace.spans().to_vec();
    let window = Instant::now();
    loop {
        configs.round(ops, &mut op, &mut alt)?;
        if spec.kind == Kind::FullBatch {
            let run = sut::train_traced(&info, inp, cfg_b, origin)?;
            ops.check(
                bits_eq(&run.losses, &ref_b.epoch_losses)
                    && bits_eq(run.outputs.as_slice(), ref_b.outputs.as_slice()),
                || "the traced body and train_distributed(overlap=false) differ".to_string(),
            );
            traced_ms.push(ms(run.wall) / epochs as f64);
            phase_runs.push(phase_metrics(&run, epochs));
            spans.truncate(setup_trace.spans().len());
            spans.extend(run.ranks.iter().flat_map(|r| r.spans().iter().copied()));
        }
        if opts.smoke || window.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
            break;
        }
    }
    configs.check_single_device(spec, ops);
    let (op_ms, alt_ms) = (median(&op), median(&alt));
    // Each phase metric is the median over the traced calls.
    if let Some(first) = phase_runs.first() {
        for key in first.keys() {
            let samples: Vec<f64> = phase_runs.iter().map(|r| r[key]).collect();
            set(m, key, median(&samples));
        }
    }

    let single = sut::train_config(spec, 3, Variant::Alt);
    let t = Instant::now();
    std::hint::black_box(sut::train_one_device(inp, &single));
    set(m, "gnn.single_epoch_ms", ms(t.elapsed()) / 3.0);
    sut::solo_kernels(&info, inp, cfg_a, m);

    // Steady-state allocations per epoch: a 2E-epoch call minus an
    // E-epoch call cancels whatever a call allocates once.
    let (short, c1, b1) = trace::count_allocs(|| sut::train(&info, inp, cfg_a));
    let cfg_long = sut::train_config(spec, 2 * epochs, Variant::Default);
    let (long, c2, b2) = trace::count_allocs(|| sut::train(&info, inp, &cfg_long));
    short?;
    long?;
    let per_epoch = |long: u64, short: u64| long.saturating_sub(short) as f64 / epochs as f64;
    set(m, "alloc.count_per_epoch", per_epoch(c2, c1));
    set(m, "alloc.bytes_per_epoch", per_epoch(b2, b1));

    match spec.kind {
        Kind::FullBatch => {
            set(m, "overlap.gain", alt_ms / op_ms);
            set(m, "trace.overhead_frac", median(&traced_ms) / alt_ms - 1.0);
            let (fwd, bwd, allreduce) = sut::wire_bytes(&info, cfg_b);
            set(m, "runtime.wire_bytes_fwd", fwd as f64);
            set(m, "runtime.wire_bytes_bwd", bwd as f64);
            set(m, "runtime.allreduce_bytes", allreduce as f64);
            set(
                m,
                "runtime.wire_mb_per_epoch",
                (fwd + bwd + allreduce) as f64 / 1e6,
            );
            let sim_ms = sut::simulate(inp, spec, scale, m);
            set(m, "sim.ratio", alt_ms / sim_ms);
        }
        _ => {
            sut::sampled_micro(&info, inp, cfg_a, m)?;
            let batches = m["sampling.batches_per_epoch"];
            let timed_us = m["graph.sample_blocks_us"]
                + m["sampling.gather_plan_us"]
                + m["runtime.exchange_rows_us"];
            set(m, "sampling.other_ms", op_ms - batches * timed_us / 1e3);
            set(m, "featcache.gain", alt_ms / op_ms);
            let cache = ref_a
                .cache
                .as_ref()
                .ok_or("cache Auto reported no counters")?;
            let e = epochs as f64;
            set(m, "featcache.capacity_rows", cache.capacity_rows as f64);
            set(m, "featcache.hit_rate", cache.hit_rate());
            set(m, "featcache.bytes_fetched", cache.bytes_fetched as f64 / e);
            set(m, "featcache.bytes_saved", cache.bytes_saved as f64 / e);
            // Computed by the cache's own counters, not measured on a wire.
            set(
                m,
                "runtime.wire_mb_per_epoch",
                cache.bytes_fetched as f64 / e / 1e6,
            );
        }
    }
    Ok(trace::chrome_trace(spec.name, &spans))
}

/// One open-loop phase at a fixed offered rate.
struct Phase {
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
    flushes: f64,
    limit_miss_frac: f64,
    gen_late_max_ms: f64,
}

/// Offers `rate_qps` for `seconds`: `send(i)` enqueues request `i` and
/// `wait` blocks for its reply; either returns `None` for a query the
/// server refused or dropped, which is a failed operation.
fn open_loop_phase<P>(
    rate_qps: f64,
    seconds: f64,
    send: impl FnMut(usize) -> Option<P>,
    wait: impl Fn(P) -> Option<sut::Reply>,
    ops: &mut Ops,
) -> Phase {
    let schedule = OpenLoop::for_duration(rate_qps, seconds);
    let (start, log) = schedule.drive(send);
    let gen_late_max_ms = ms(max_lateness(&log));
    let mut latencies = Vec::with_capacity(log.len());
    let (mut batch_sum, mut flushes) = (0usize, 0.0);
    for sent in log {
        let reply = sent.handle.and_then(&wait);
        ops.check(reply.is_some(), || "a query got no reply".to_string());
        if let Some(reply) = reply {
            latencies.push(ms(latency_from_due(start, sent.due, reply.completed)));
            batch_sum += reply.batch_size;
            flushes += 1.0 / reply.batch_size as f64;
        }
    }
    if latencies.is_empty() {
        // A dead server: every query is already counted as failed, and the
        // zero latencies fail the run's "metric is positive" check too.
        return Phase {
            p50_ms: 0.0,
            p99_ms: 0.0,
            mean_batch: 0.0,
            flushes: 0.0,
            limit_miss_frac: 1.0,
            gen_late_max_ms,
        };
    }
    latencies.sort_by(f64::total_cmp);
    let late = latencies.iter().filter(|&&l| l > LATENCY_LIMIT_MS).count();
    Phase {
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        mean_batch: batch_sum as f64 / latencies.len() as f64,
        flushes,
        limit_miss_frac: late as f64 / latencies.len() as f64,
        gen_late_max_ms,
    }
}

/// Enqueues `burst` queries at once and returns completions per second
/// until the last one is answered: the service rate with no idle time.
fn saturation_qps(server: &Server, burst: usize, seed: u64, vertices: usize, ops: &mut Ops) -> f64 {
    let start = Instant::now();
    let pending: Vec<_> = (0..burst)
        .map(|i| server.query(query_target(seed, i, vertices)))
        .collect();
    let mut last = start;
    for p in pending {
        let reply = p.and_then(sut::Pending::wait);
        ops.check(reply.is_some(), || "a burst query got no reply".to_string());
        if let Some(reply) = reply {
            last = last.max(reply.completed);
        }
    }
    burst as f64 / (last - start).as_secs_f64()
}

/// The serving workload, identical in both modes (it is measured from
/// outside either way); the mode only selects which metrics are printed.
fn serve(
    spec: &Spec,
    opts: &RunOpts,
    inp: &Inputs,
    ops: &mut Ops,
    m: &mut Layers,
) -> Vec<(&'static str, Summary)> {
    let net = sut::serving_net(spec, opts.seed);
    let (server, setups) = timed_setups(opts.smoke, ops, || Server::spawn(inp, &net));
    let n = inp.graph.num_vertices();

    // Closed loop, one query at a time: service time with no queueing
    // (the flush deadline included, as a lone caller would see it).
    let closed: Vec<f64> = (0..if opts.smoke { 200 } else { 2_000 })
        .map(|i| {
            let t = Instant::now();
            let reply = server
                .query(query_target(opts.seed, i, n))
                .and_then(sut::Pending::wait);
            ops.check(reply.is_some(), || {
                "a closed-loop query got no reply".to_string()
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let hot_mix: Vec<u32> = {
        let mut seeds: Vec<u32> = (0..32).map(|i| query_target(opts.seed, i, n)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds
    };

    let (rounds, phase_s, burst) = if opts.smoke {
        (1, 0.3, SAT_BURST / 10)
    } else {
        (3, opts.seconds / 8.0, SAT_BURST)
    };
    let (mut light, mut heavy, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let seed = opts.seed ^ (round as u64) << 32;
        let send = |i| server.query(query_target(seed, i, n));
        light.push(open_loop_phase(
            LIGHT_QPS,
            phase_s,
            send,
            sut::Pending::wait,
            ops,
        ));
        heavy.push(open_loop_phase(
            HEAVY_QPS,
            phase_s,
            send,
            sut::Pending::wait,
            ops,
        ));
        sat.push(saturation_qps(&server, burst, seed, n, ops));
    }
    let peak_rss = peak_rss_mb();

    // 64 served rows against the whole-graph forward pass, bit for bit.
    let reference = sut::full_forward(&net, inp);
    for i in 0..64 {
        let v = query_target(opts.seed ^ 0xC0FFEE, i, n);
        let reply = server.query(v).and_then(sut::Pending::wait);
        let same = reply.is_some_and(|r| bits_eq(&r.embedding, reference.row(v as usize)));
        ops.check(same, || {
            format!("served row of vertex {v} differs from the full forward")
        });
    }

    let med = |phases: &[Phase], pick: fn(&Phase) -> f64| {
        median(&phases.iter().map(pick).collect::<Vec<f64>>())
    };
    for (label, phases) in [("light", &light), ("heavy", &heavy)] {
        set(
            m,
            &format!("serving.p50_ms_{label}"),
            med(phases, |p| p.p50_ms),
        );
        set(
            m,
            &format!("serving.p99_ms_{label}"),
            med(phases, |p| p.p99_ms),
        );
        set(
            m,
            &format!("serving.mean_batch_{label}"),
            med(phases, |p| p.mean_batch),
        );
    }
    set(m, "serving.flushes_heavy", med(&heavy, |p| p.flushes));
    set(
        m,
        "serving.slo_miss_frac_heavy",
        med(&heavy, |p| p.limit_miss_frac),
    );
    let late = light
        .iter()
        .chain(&heavy)
        .map(|p| p.gen_late_max_ms)
        .fold(0.0, f64::max);
    set(m, "serving.gen_late_max_ms", late);
    set(m, "serving.sat_qps", median(&sat));
    set(m, "serving.spawn_ms", median(&setups) * 1e3);
    set(m, "serving.closed_loop_us", median(&closed));
    set(
        m,
        "graph.khop_sparse_us",
        sut::khop_sparse_us(&inp.graph, &hot_mix),
    );
    let p50s = |phases: &[Phase]| summarize(&phases.iter().map(|p| p.p50_ms).collect::<Vec<f64>>());
    vec![
        ("setup_s", summarize(&setups)),
        ("op_ms", p50s(&light)),
        ("op_alt_ms", p50s(&heavy)),
        ("throughput", summarize(&sat)),
        ("peak_rss_mb", peak_rss),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that answers nothing fails every query and leaves a phase
    /// with no latency to rank, not a panic.
    #[test]
    fn a_dead_server_fails_every_query_of_a_phase() {
        let mut ops = Ops::default();
        let phase = open_loop_phase(20_000.0, 0.01, |_| None::<()>, |()| None, &mut ops);
        assert_eq!((ops.attempted, ops.failed), (200, 200));
        assert_eq!((phase.p50_ms, phase.p99_ms), (0.0, 0.0));
        assert_eq!(phase.limit_miss_frac, 1.0);

        let mut ops = Ops::default();
        let reply = |()| {
            Some(sut::Reply {
                embedding: Vec::new(),
                batch_size: 4,
                completed: Instant::now(),
            })
        };
        let phase = open_loop_phase(20_000.0, 0.01, |_| Some(()), reply, &mut ops);
        assert_eq!((ops.attempted, ops.failed), (200, 0));
        assert_eq!((phase.mean_batch, phase.flushes), (4.0, 50.0));
        assert!(phase.p50_ms > 0.0 && phase.p50_ms <= phase.p99_ms);
    }
}
