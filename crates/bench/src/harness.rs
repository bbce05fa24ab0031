//! Experiment plumbing: dataset scales, graph caching and table printing.

use std::collections::HashMap;

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
    fn epoch_config_uses_table4_dims() {
        let ctx = RunContext::new(false);
        let cfg = ctx.epoch_config(Dataset::Reddit, GnnModel::Gcn);
        assert_eq!(cfg.feature_size, 602);
        assert_eq!(cfg.hidden_size, 256);
    }
}
