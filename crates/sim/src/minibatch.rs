//! Offline cost model for mini-batch sampling.
//!
//! How much communication does a fanout bound save? [`SamplingModel`]
//! prices a sampled epoch (DistDGL-style blocks, `dgcl::sampling`)
//! against the full-batch epoch from the expected block source-set
//! sizes, so fanouts and batch sizes can be compared without running
//! the cluster.

/// Expected communication volume of sampled mini-batch training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingModel {
    /// Vertices in the graph.
    pub num_vertices: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Feature/embedding width in f32 elements (per-layer widths are
    /// close enough for a volume model; use the widest).
    pub width: usize,
    /// Fraction of a block's source rows that live on a remote rank
    /// (`1 - 1/p` under a uniform random partition of `p` parts).
    pub remote_fraction: f64,
}

impl SamplingModel {
    /// Expected source-set size of the block chain for one batch of
    /// `batch` seeds under `fanouts` (input-closest layer first;
    /// `None` = the full neighborhood). Row counts grow top-down by the
    /// per-vertex branching factor, capped at the vertex count — the
    /// saturation that makes deep full-fanout blocks as expensive as
    /// full-batch layers.
    pub fn expected_src_rows(&self, batch: usize, fanouts: &[Option<usize>]) -> f64 {
        let n = self.num_vertices as f64;
        let mut rows = (batch as f64).min(n);
        for fanout in fanouts.iter().rev() {
            let branch = match fanout {
                Some(f) => self.avg_degree.min(*f as f64),
                None => self.avg_degree,
            };
            rows = (rows * (1.0 + branch)).min(n);
        }
        rows
    }

    /// Expected bytes moved by one batch's input-layer row exchange —
    /// the step's only row transfer: the runtime's sampled step is
    /// trainer-local, every layer above the input runs where the seeds
    /// live. This is **one trainer's fetch**: each source row of the
    /// batch's chain is requested once, by the trainer whose seeds reach
    /// it, and crosses the wire if it lives elsewhere. `p` trainers over
    /// `batch / p` seeds each move about this much between them (their
    /// chains partition the seeds and share source rows only where
    /// neighbourhoods overlap); a step in which every rank assembled the
    /// whole batch's source matrix would move `p` times it. `repro
    /// sampling` checks the epoch total against the measured
    /// `bytes_fetched`.
    pub fn batch_exchange_bytes(&self, batch: usize, fanouts: &[Option<usize>]) -> f64 {
        self.expected_src_rows(batch, fanouts) * self.remote_fraction * (4 * self.width) as f64
    }

    /// Expected bytes one sampled epoch moves: every vertex is a seed
    /// exactly once, split into `ceil(n / batch)` batches.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn epoch_exchange_bytes(&self, batch: usize, fanouts: &[Option<usize>]) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        let batches = self.num_vertices.div_ceil(batch) as f64;
        batches * self.batch_exchange_bytes(batch, fanouts)
    }

    /// Bytes a full-batch epoch moves per layer crossing: every remote
    /// row, once per layer.
    pub fn full_batch_epoch_bytes(&self, layers: usize) -> f64 {
        self.num_vertices as f64 * self.remote_fraction * (4 * self.width) as f64 * layers as f64
    }

    /// Communication ratio of a sampled epoch to the full-batch epoch;
    /// below 1.0 the fanout bound is saving volume.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `fanouts` is empty.
    pub fn epoch_volume_ratio(&self, batch: usize, fanouts: &[Option<usize>]) -> f64 {
        assert!(!fanouts.is_empty(), "need at least one layer");
        self.epoch_exchange_bytes(batch, fanouts) / self.full_batch_epoch_bytes(fanouts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampling() -> SamplingModel {
        SamplingModel {
            num_vertices: 100_000,
            avg_degree: 16.0,
            width: 64,
            remote_fraction: 0.75,
        }
    }

    #[test]
    fn tighter_fanouts_shrink_the_exchange() {
        let m = sampling();
        let loose = m.epoch_exchange_bytes(512, &[Some(10), Some(10)]);
        let tight = m.epoch_exchange_bytes(512, &[Some(2), Some(2)]);
        assert!(tight < loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn src_rows_saturate_at_the_vertex_count() {
        let m = sampling();
        let rows = m.expected_src_rows(50_000, &[None, None, None]);
        assert_eq!(rows, m.num_vertices as f64);
    }

    #[test]
    fn per_update_volume_is_a_fraction_of_the_full_batch_epoch() {
        // Sampling's win is per *update*: one batch's exchange is tiny
        // next to the epoch-sized transfer a full-batch step needs.
        let m = sampling();
        let step = m.batch_exchange_bytes(256, &[Some(2), Some(2)]);
        let full = m.full_batch_epoch_bytes(2);
        assert!(step < 0.05 * full, "step {step} vs full {full}");
    }

    #[test]
    fn full_fanout_tiny_batches_amplify_volume() {
        // Sampling with no fanout bound re-fetches overlapping halos per
        // batch: strictly worse than one full-batch exchange.
        let m = sampling();
        let ratio = m.epoch_volume_ratio(64, &[None, None]);
        assert!(ratio > 1.0, "ratio {ratio}");
    }
}
