//! Offline cost models for mini-batch sampling and batched serving.
//!
//! Two planning questions ride on the sampled pipeline (DistDGL-style
//! blocks, `dgcl::sampling`):
//!
//! * **Training** — how much communication does a fanout bound save?
//!   [`SamplingModel`] prices a sampled epoch against the full-batch
//!   epoch from the expected block source-set sizes, so fanouts and
//!   batch sizes can be compared without running the cluster.
//! * **Serving** — how large should the inference micro-batch be?
//!   [`ServingModel`] prices a flush as a fixed cost plus a per-request
//!   cost (the measured shape of `dgcl::serving`'s flush: one sparse
//!   k-hop expansion amortized over the batch, then per-row layer
//!   work), yielding the sustainable QPS of a `max_batch` setting and
//!   the largest batch that still meets a latency SLO.

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

/// Affine flush-cost model of the batched inference server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingModel {
    /// Fixed seconds per flush (sparse closure expansion, dispatch).
    pub flush_seconds: f64,
    /// Seconds per request within a flush (per-row aggregation and
    /// layer compute).
    pub per_request_seconds: f64,
}

impl ServingModel {
    /// Latency of a flush serving `batch` requests.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batch_latency(&self, batch: usize) -> f64 {
        assert!(batch > 0, "a flush serves at least one request");
        self.flush_seconds + batch as f64 * self.per_request_seconds
    }

    /// Sustainable requests per second at `max_batch`: back-to-back
    /// full flushes, `batch / latency(batch)` — monotone in the batch
    /// size whenever the fixed cost is nonzero.
    pub fn capacity_qps(&self, max_batch: usize) -> f64 {
        max_batch as f64 / self.batch_latency(max_batch)
    }

    /// The largest batch in `1..=limit` whose flush latency stays
    /// within `slo_seconds` — the capacity-maximal setting under a
    /// latency SLO. `None` if even an unbatched flush misses it.
    pub fn best_batch(&self, limit: usize, slo_seconds: f64) -> Option<usize> {
        (1..=limit)
            .rev()
            .find(|&b| self.batch_latency(b) <= slo_seconds)
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

    fn serving() -> ServingModel {
        ServingModel {
            flush_seconds: 2e-3,
            per_request_seconds: 1e-4,
        }
    }

    #[test]
    fn batching_raises_capacity() {
        let m = serving();
        assert!(m.capacity_qps(16) > 2.0 * m.capacity_qps(1));
        let mut prev = m.capacity_qps(1);
        for b in [2, 4, 8, 16, 32] {
            let q = m.capacity_qps(b);
            assert!(q > prev, "capacity fell at batch {b}");
            prev = q;
        }
    }

    #[test]
    fn best_batch_respects_the_slo() {
        let m = serving();
        let b = m.best_batch(1024, 5e-3).expect("slo is reachable");
        assert!(m.batch_latency(b) <= 5e-3);
        assert!(m.batch_latency(b + 1) > 5e-3, "not maximal: {b}");
    }

    #[test]
    fn impossible_slo_is_none() {
        let m = serving();
        assert_eq!(m.best_batch(64, 1e-6), None);
    }
}
