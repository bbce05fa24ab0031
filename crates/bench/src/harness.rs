//! Experiment plumbing: dataset scales, graph caching, table printing,
//! the median timer and the one writer of the `BENCH_*.json` artifacts.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::time::Instant;

use dgcl_graph::{CsrGraph, Dataset};
use dgcl_sim::{EpochConfig, GnnModel};

/// Context shared by all experiments: the scale regime and a graph cache
/// so repeated experiments reuse generated datasets.
pub struct RunContext {
    full: bool,
    cache: HashMap<(Dataset, u64), CsrGraph>,
    /// Seed used for generation, partitioning and planning.
    pub seed: u64,
}

impl RunContext {
    /// Creates a context; `full` regenerates paper-scale graphs.
    pub fn new(full: bool) -> Self {
        Self {
            full,
            cache: HashMap::new(),
            seed: 42,
        }
    }

    /// The generation scale for a dataset under this context.
    ///
    /// Default scales keep each experiment in seconds while preserving
    /// density and skew; `--full` uses 1.0 (paper scale).
    pub fn scale(&self, d: Dataset) -> f64 {
        if self.full {
            return 1.0;
        }
        match d {
            Dataset::Reddit => 0.02,
            Dataset::ComOrkut => 0.008,
            Dataset::WebGoogle => 0.02,
            Dataset::WikiTalk => 0.015,
        }
    }

    /// The full-scale projection factor (1 / scale).
    pub fn upscale(&self, d: Dataset) -> f64 {
        1.0 / self.scale(d)
    }

    /// Generates (or returns the cached) graph for `d`.
    pub fn graph(&mut self, d: Dataset) -> CsrGraph {
        let seed = self.seed;
        let scale = self.scale(d);
        self.cache
            .entry((d, seed))
            .or_insert_with(|| d.generate(scale, seed))
            .clone()
    }

    /// The simulation config for a dataset/model pair, with the paper's
    /// feature and hidden sizes (Table 4) and this context's upscale.
    pub fn epoch_config(&self, d: Dataset, model: GnnModel) -> EpochConfig {
        let stats = d.stats();
        let mut cfg = EpochConfig::new(model, stats.feature_size, stats.hidden_size);
        cfg.upscale = self.upscale(d);
        cfg.seed = self.seed;
        cfg
    }
}

/// Whether `DGCL_BENCH_SMOKE` asks for the seconds-long CI variant of an
/// experiment (set and neither empty nor `0`).
pub fn smoke() -> bool {
    std::env::var("DGCL_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The machine's available parallelism, stamped into every wall-clock
/// artifact so a 1-CPU box documents its ceiling.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Formats seconds as milliseconds with sensible precision.
pub fn ms(seconds: f64) -> String {
    let v = seconds * 1e3;
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Prints an aligned text table: `header` then `rows`, all cells
/// pre-formatted.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Median-of-`reps` wall time of `body` in seconds.
pub(crate) fn median_seconds<F: FnMut()>(reps: usize, mut body: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A JSON value, as the `BENCH_*.json` artifacts need it (the workspace
/// is offline; no serde). Object keys keep insertion order.
#[derive(Debug)]
pub(crate) enum Json {
    Bool(bool),
    /// Printed exactly.
    Int(i128),
    /// Printed as the shortest decimal that reads back as the same
    /// `f64`; a non-finite value prints as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `obj! { "key": value, … }`: a [`Json::Obj`] with its keys in the order
/// written, each value converted by `Json::from`.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::harness::Json::Obj(vec![
            $(($key.to_string(), $crate::harness::Json::from($value))),*
        ])
    };
}
pub(crate) use obj;

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i128)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Self {
        Json::Num(v.into())
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// A JSON string literal: quoted, with `"`, `\` and control characters
/// escaped.
fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    /// Compact, `{"key": value, "list": [1, 2]}`. The alternate form
    /// (`{:#}`) of an object is the artifact layout: one key per line,
    /// and an array value one element per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_json_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) if f.alternate() => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "\n  " } else { ",\n  " })?;
                    write_json_str(f, key)?;
                    f.write_str(": ")?;
                    match value {
                        Json::Arr(items) => {
                            f.write_char('[')?;
                            for (j, item) in items.iter().enumerate() {
                                let sep = if j == 0 { "" } else { "," };
                                write!(f, "{sep}\n    {item}")?;
                            }
                            f.write_str("\n  ]")?;
                        }
                        value => write!(f, "{value}")?,
                    }
                }
                f.write_str("\n}")
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { ", " })?;
                    write_json_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// The text of an artifact: `bench`, then this machine's `cpus`, then
/// `body`'s own keys in order.
///
/// # Panics
///
/// Panics if `body` is not an object.
fn artifact(bench: &str, body: Json) -> String {
    let Json::Obj(fields) = body else {
        panic!("an artifact body is a JSON object");
    };
    let mut record = vec![
        ("bench".to_string(), Json::from(bench)),
        ("cpus".to_string(), Json::from(cpus())),
    ];
    record.extend(fields);
    format!("{:#}\n", Json::Obj(record))
}

/// Writes `BENCH_<file_stem>.json` into the working directory (see
/// [`artifact`] for its keys) and says whether it could.
pub(crate) fn write_artifact(file_stem: &str, bench: &str, body: Json) {
    let path = format!("BENCH_{file_stem}.json");
    match std::fs::write(&path, artifact(bench, body)) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => println!("  could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_full_under_full_flag() {
        let ctx = RunContext::new(true);
        assert_eq!(ctx.scale(Dataset::Reddit), 1.0);
        assert_eq!(ctx.upscale(Dataset::Reddit), 1.0);
    }

    #[test]
    fn graph_cache_returns_same_graph() {
        let mut ctx = RunContext::new(false);
        let a = ctx.graph(Dataset::WikiTalk);
        let b = ctx.graph(Dataset::WikiTalk);
        assert_eq!(a, b);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(0.1234), "123");
        assert_eq!(ms(0.01234), "12.3");
        assert_eq!(ms(0.001234), "1.23");
    }

    #[test]
    fn median_timer_runs_every_rep() {
        let mut calls = 0;
        let s = median_seconds(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(s >= 0.0);
    }

    #[test]
    fn artifact_layout_escapes_strings_and_nulls_non_finite_numbers() {
        let body = obj! {
            "smoke": true,
            "note": "a \"quoted\" \\ path\n\u{1}",
            "runs": vec![
                obj! { "n": u64::MAX, "x": 0.1, "loss": 0.5f32, "c": vec![obj! { "c": 1usize }] },
                obj! { "n": 0usize, "x": f64::NAN, "loss": f32::INFINITY, "c": Vec::new() },
            ],
        };
        let expected = format!(
            "{{\n  \"bench\": \"demo\",\n  \"cpus\": {},\n  \"smoke\": true,\n  \
             \"note\": \"a \\\"quoted\\\" \\\\ path\\n\\u0001\",\n  \"runs\": [\n    \
             {{\"n\": 18446744073709551615, \"x\": 0.1, \"loss\": 0.5, \"c\": [{{\"c\": 1}}]}},\n    \
             {{\"n\": 0, \"x\": null, \"loss\": null, \"c\": []}}\n  ]\n}}\n",
            cpus()
        );
        assert_eq!(artifact("demo", body), expected);
    }

    #[test]
    fn epoch_config_uses_table4_dims() {
        let ctx = RunContext::new(false);
        let cfg = ctx.epoch_config(Dataset::Reddit, GnnModel::Gcn);
        assert_eq!(cfg.feature_size, 602);
        assert_eq!(cfg.hidden_size, 256);
    }
}
