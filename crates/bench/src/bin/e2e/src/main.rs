//! `e2e`: the epoch-anatomy benchmark.
//!
//! One command runs the four workloads, checks their outputs and prints
//! every metric by name with its unit; `--trace 1` re-runs a workload
//! through the benchmark's own spanned copy of the device body and
//! prints the per-layer metrics. See `README.md` beside this file.
//!
//! ```text
//! e2e [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     [--smoke] [--out <record.json>]
//! e2e --compare <a.json> <b.json>
//! ```

mod catalog;
mod loadgen;
mod record;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use record::{Record, Verdict, WorkloadRecord};
use run::RunOpts;

/// Measurement window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is the same number (a test in `catalog.rs` says so), and
/// the driver passes it as `--seconds`.
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workload: String,
    opts: RunOpts,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
    format!(
        "usage: e2e [--workload <{}|all>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--smoke] [--out <record.json>]\n       e2e --compare <a.json> <b.json>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        opts: RunOpts {
            seed: 42,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            trace: false,
        },
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other} is neither 0 nor 1")),
                };
            }
            "--smoke" => args.opts.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two record files")?);
                let b = PathBuf::from(value("two record files")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && workloads::by_name(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

/// Where traces and records go: beside the build outputs.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e")
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn print_workload(w: &WorkloadRecord) {
    if w.traced {
        println!(
            "  {:<34} {:>16}  {:<6} better",
            "per-layer metric", "value", "unit"
        );
        for m in &w.per_layer {
            let better = catalog::layer(&m.name).map_or("", |d| d.better.as_str());
            println!("  {:<34} {:>16.4}  {:<6} {better}", m.name, m.value, m.unit);
        }
    } else {
        println!(
            "  {:<14} {:>12} {:>12} {:>12} {:>4}  {:<5} bound",
            "end-to-end", "median", "min", "max", "n", "unit"
        );
        for m in &w.e2e {
            let s = &m.summary;
            println!(
                "  {:<14} {:>12.4} {:>12.4} {:>12.4} {:>4}  {:<5} {}",
                m.name, s.median, s.min, s.max, s.n, m.unit, m.bound
            );
        }
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        w.ops_attempted, w.ops_failed
    );
    for f in &w.failures {
        println!("  FAILED: {f}");
    }
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn new_record(opts: &RunOpts, workloads: Vec<WorkloadRecord>) -> Record {
    Record {
        bench: "e2e".to_string(),
        git_rev: git_rev(),
        cpus: sut::cpus(),
        compute_threads: sut::compute_threads(),
        seed: opts.seed,
        smoke: opts.smoke,
        workloads,
    }
}

/// Runs one workload in this process. The last line printed is the one
/// the driver reads.
fn run_one(spec: &workloads::Spec, args: &Args) -> Result<bool, String> {
    let opts = &args.opts;
    println!(
        "# e2e {} seed={} seconds={} trace={} smoke={} cpus={} compute_threads={}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke,
        sut::cpus(),
        sut::compute_threads()
    );
    println!("# {}", spec.why);
    let outcome = run::run(spec, opts)?;
    print_workload(&outcome.record);
    if let Some(json) = &outcome.chrome_trace {
        let path = out_dir().join(format!("{}-seed{}.trace.json", spec.name, opts.seed));
        write_file(&path, json)?;
        println!("  spans written to {}", path.display());
    }
    if let Some(path) = &args.out {
        write_file(
            path,
            &new_record(opts, vec![outcome.record.clone()]).to_json(),
        )?;
    }
    println!("{}", outcome.record.contract_line());
    Ok(outcome.record.ops_failed == 0)
}

/// Runs every workload, each in a process of its own so that
/// `peak_rss_mb` is the workload's, and gathers their records into one.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let opts = &args.opts;
    let mut records = Vec::new();
    for spec in workloads::ALL {
        let part = out_dir().join(format!(
            "{}-seed{}-trace{}.json",
            spec.name,
            opts.seed,
            u8::from(opts.trace)
        ));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{} left no record ({status}): {e}", spec.name))?;
        let mut record = Record::from_json(&text)?;
        records.append(&mut record.workloads);
        println!();
    }
    let failed: u64 = records.iter().map(|w| w.ops_failed).sum();
    let attempted: u64 = records.iter().map(|w| w.ops_attempted).sum();
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "e2e-seed{}-trace{}.json",
            opts.seed,
            u8::from(opts.trace)
        ))
    });
    write_file(&path, &new_record(opts, records).to_json())?;
    println!(
        "# {} workloads, ops_attempted {attempted}, ops_failed {failed}; record written to {}",
        workloads::ALL.len(),
        path.display()
    );
    Ok(failed == 0)
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| -> Result<Record, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Record::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    println!(
        "# a: {} rev {} seed {}   b: {} rev {} seed {}",
        a.display(),
        ra.git_rev,
        ra.seed,
        b.display(),
        rb.git_rev,
        rb.seed
    );
    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let rows = record::compare(&ra, &rb);
    for r in &rows {
        println!(
            "{:<16} {:<26} {:>12.4} {:>12.4} {:>8.1}% {:>6}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound,
            r.verdict.as_str()
        );
    }
    if rows.is_empty() {
        return Err("the two records share no (metric x workload)".to_string());
    }
    Ok(rows.iter().all(|r| r.verdict == Verdict::Ok))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(spec) = workloads::by_name(&args.workload) {
        run_one(spec, &args)
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is printed; the exit code says it is not clean.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let a = parse_args(&argv(
            "--workload fullbatch-halo --seed 7 --seconds 16 --trace 1",
        ))
        .expect("parses");
        assert_eq!(a.workload, "fullbatch-halo");
        assert_eq!(a.opts.seed, 7);
        assert!(a.opts.trace && !a.opts.smoke);
        let a = parse_args(&argv("--trace 0 --smoke")).expect("parses");
        assert!(!a.opts.trace && a.opts.smoke);
        assert_eq!(a.workload, "all");
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--trace",
            "--trace 2",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} parsed");
        }
    }

    /// The same seed gives the same inputs; another seed gives others.
    #[test]
    fn workload_inputs_are_a_function_of_the_seed() {
        for spec in workloads::ALL {
            let a = sut::inputs(spec, spec.smoke_scale, 5);
            let b = sut::inputs(spec, spec.smoke_scale, 5);
            let c = sut::inputs(spec, spec.smoke_scale, 6);
            assert!(a.graph == b.graph && a.features == b.features && a.targets == b.targets);
            assert!(
                a.graph != c.graph || a.features != c.features,
                "{}",
                spec.name
            );
        }
    }

    /// Every workload runs end to end on tiny inputs, in both modes,
    /// with no failed operation, and the record survives `--compare`.
    #[test]
    fn smoke_runs_are_clean_and_compare_ok_with_themselves() {
        let mut records = Vec::new();
        for trace in [false, true] {
            let opts = RunOpts {
                seed: 11,
                seconds: 0.3,
                smoke: true,
                trace,
            };
            for spec in workloads::ALL {
                let outcome = run::run(spec, &opts).expect("the workload runs");
                let w = &outcome.record;
                assert_eq!(w.ops_failed, 0, "{}: {:?}", spec.name, w.failures);
                assert!(w.ops_attempted > 0);
                if trace {
                    assert_eq!(w.per_layer.len(), catalog::PER_LAYER.len());
                    assert_eq!(
                        outcome.chrome_trace.is_some(),
                        spec.kind != workloads::Kind::Serving
                    );
                } else {
                    assert_eq!(w.e2e.len(), catalog::E2E.len());
                    assert!(w.e2e.iter().all(|m| m.summary.median > 0.0));
                    records.push(outcome.record);
                }
            }
        }
        let opts = RunOpts {
            seed: 11,
            seconds: 0.3,
            smoke: true,
            trace: false,
        };
        let record = new_record(&opts, records);
        let back = Record::from_json(&record.to_json()).expect("own output parses");
        let rows = record::compare(&record, &back);
        assert_eq!(rows.len(), workloads::ALL.len() * catalog::E2E.len());
        assert!(rows.iter().all(|r| r.verdict != Verdict::Regressed));
    }
}
