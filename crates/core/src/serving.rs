//! Batched forward-only inference serving.
//!
//! Training produces a model; serving answers *"what is vertex v's
//! embedding under the current parameters?"* with low latency. The
//! [`InferenceServer`] runs a single background worker that
//! micro-batches concurrent requests: a request is answered either when
//! [`ServingConfig::max_batch`] requests have queued (size trigger) or
//! when the oldest queued request has waited
//! [`ServingConfig::max_delay`] (deadline trigger), whichever comes
//! first. Batching amortises the per-flush neighbourhood expansion and
//! the layer matmuls across requests, which is what lets the batched
//! server sustain a higher QPS than a `max_batch = 1` server at the
//! same per-request work (`BENCH_serving.json` measures both).
//!
//! Two properties keep the answers trustworthy:
//!
//! * **Bitwise parity with full inference.** A served embedding is
//!   bitwise identical to the corresponding row of
//!   [`GnnNetwork::forward`] over the whole graph. Layer 0 touches
//!   every vertex's raw features, so its output is computed once at
//!   spawn and cached; a flush runs layers `1..L` over the sampler's
//!   fanout-∞ block chain of the batch ([`BlockPool::sample_blocks`] —
//!   the exact k-hop closure, every row's full neighbour list in
//!   adjacency order with positions resolved at sampling time) through
//!   [`forward_chain`], the walk the sampled trainer runs: the same
//!   element order and `f32` accumulator as the whole-graph kernel.
//! * **Bounded staleness, explicit timing.** Every [`ServedReply`]
//!   carries the flush's batch size and completion instant so load
//!   drivers can attribute latency to queueing vs compute.
//!
//! The server is deliberately fabric-free: serving replicates the
//! model and the (layer-0) embedding table, so a query never crosses a
//! partition boundary. That mirrors the common deployment where
//! training is distributed but each inference replica is standalone.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dgcl_gnn::{forward_chain, GnnNetwork};
use dgcl_graph::{BlockPool, CsrGraph, GraphError, LayerBlock, VertexId};
use dgcl_tensor::Matrix;

use crate::featcache::{AscendingWalk, CacheStats, CacheStatsSnapshot, FeatureCache};

/// Micro-batching policy for an [`InferenceServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Flush as soon as this many requests are queued. `0` is treated
    /// as `1` (every request flushes alone).
    pub max_batch: usize,
    /// Flush once the oldest queued request has waited this long, even
    /// if the batch is not full.
    pub max_delay: Duration,
    /// Bound the resident layer-0 table to this many rows. `None` (the
    /// default) keeps the full table; `Some(c)` retains only the `c`
    /// highest-degree vertices' rows (ascending id on ties) and
    /// recomputes misses per flush from the raw features — bitwise
    /// identical either way, trading memory for per-flush compute.
    /// [`InferenceServer::cache_stats`] reports the hit/miss counters.
    pub cache_rows: Option<usize>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_delay: Duration::from_millis(2),
            cache_rows: None,
        }
    }
}

impl ServingConfig {
    /// The unbatched baseline: every request is served alone,
    /// immediately. The serving benchmark compares this against
    /// micro-batched configurations.
    pub fn unbatched() -> Self {
        Self {
            max_batch: 1,
            max_delay: Duration::ZERO,
            cache_rows: None,
        }
    }
}

/// The answer to one inference request.
#[derive(Debug, Clone)]
pub struct ServedReply {
    /// The queried vertex's output-layer embedding — bitwise identical
    /// to its row of [`GnnNetwork::forward`] over the whole graph.
    pub embedding: Vec<f32>,
    /// How many requests shared the flush that produced this reply.
    pub batch_size: usize,
    /// When the flush completed (reply send time); subtract the
    /// caller's enqueue instant for end-to-end latency.
    pub completed: Instant,
}

/// A pending reply; redeem with [`ServedFuture::wait`].
#[derive(Debug)]
pub struct ServedFuture {
    rx: Receiver<ServedReply>,
}

impl ServedFuture {
    /// Blocks until the server answers. Returns `None` only if the
    /// server shut down before serving this request.
    pub fn wait(self) -> Option<ServedReply> {
        self.rx.recv().ok()
    }

    /// Like [`ServedFuture::wait`] but gives up after `timeout`.
    pub fn wait_timeout(self, timeout: Duration) -> Option<ServedReply> {
        self.rx.recv_timeout(timeout).ok()
    }
}

enum Req {
    Query {
        v: VertexId,
        reply: Sender<ServedReply>,
    },
    Shutdown,
}

/// The flush's layer-0 source: the full precomputed table, or a
/// degree-bounded cache of it with per-flush miss recomputation.
enum Layer0 {
    /// Every vertex's layer-0 output, as computed at spawn.
    Full(Matrix),
    /// Only the hottest vertices' rows stay resident; misses recompute
    /// from the raw features (bitwise identical to the dropped rows).
    Cached {
        /// The resident layer-0 output rows; counters shared with
        /// [`InferenceServer::cache_stats`].
        cache: Arc<FeatureCache>,
        /// Raw features, retained for miss recomputation.
        features: Matrix,
    },
}

/// `m`'s rows for the global ids `set`, `m` holding one row per vertex.
fn vertex_rows(m: &Matrix, set: &[VertexId]) -> Matrix {
    let idx: Vec<usize> = set.iter().map(|&v| v as usize).collect();
    m.gather_rows(&idx)
}

impl Layer0 {
    /// The layer-0 output rows for `set` (strictly ascending global ids)
    /// — bitwise identical to the same rows of the full spawn-time table.
    fn gather(&self, srv: &mut Worker, set: &[VertexId]) -> Matrix {
        let (cache, features) = match self {
            Layer0::Full(h1) => return vertex_rows(h1, set),
            Layer0::Cached { cache, features } => (cache, features),
        };
        // One merge walk resolves hits and misses together.
        let mut walk = AscendingWalk::new(&cache.ids);
        let mut out = Matrix::zeros(set.len(), cache.rows.cols());
        let (mut misses, mut miss_pos) = (Vec::new(), Vec::new());
        for (i, &v) in set.iter().enumerate() {
            match walk.find(v) {
                Some(ci) => out.set_row(i, cache.rows.row(ci)),
                None => {
                    misses.push(v);
                    miss_pos.push(i);
                }
            }
        }
        if !misses.is_empty() {
            // Layer 0 over the misses' one-block chain: the row slice of
            // its spawn-time forward, so recomputed rows are bitwise equal.
            let blocks = srv.sample(&misses, 1);
            let h0 = vertex_rows(features, &blocks[0].src);
            let rows = forward_chain(&mut srv.net.layers_mut()[..1], &blocks, h0);
            for (r, &i) in miss_pos.iter().enumerate() {
                out.set_row(i, rows.row(r));
            }
            srv.pool.recycle(blocks);
        }
        let hits = set.len() - misses.len();
        cache
            .stats
            .record(hits as u64, misses.len() as u64, out.cols());
        out
    }
}

/// A standalone batched inference server over a trained model.
///
/// Spawning precomputes the layer-0 output for every vertex (the only
/// layer that reads raw features); each flush then recomputes layers
/// `1..L` over the exact block chain of the batched seeds. Dropping
/// the server flushes the queue and joins the worker.
pub struct InferenceServer {
    tx: Sender<Req>,
    join: Option<JoinHandle<()>>,
    num_vertices: usize,
    cache: Option<Arc<FeatureCache>>,
}

/// What the worker thread owns besides its [`Layer0`] source.
struct Worker {
    graph: CsrGraph,
    net: GnnNetwork,
    /// Recycles every flush's block chains: once warm, the graph walk
    /// allocates nothing.
    pool: BlockPool,
    /// Fanout ∞ per hop, `L` long: a flush asks for `L - 1` hops, a
    /// layer-0 miss for one.
    full: Vec<Option<usize>>,
}

impl Worker {
    /// The exact `hops`-hop block chain of `seeds`, which must be in range
    /// (queries are validated on entry; a chain only adds neighbours).
    fn sample(&mut self, seeds: &[VertexId], hops: usize) -> Vec<LayerBlock> {
        self.pool
            .sample_blocks(&self.graph, seeds, &self.full[..hops], 0)
            .expect("seeds validated at query time")
    }
}

impl InferenceServer {
    /// Starts a server for `net` over `graph` with raw vertex
    /// `features`. The graph, model and cached layer-0 output are
    /// cloned into the worker; later training steps on the caller's
    /// copy do not affect replies (snapshot semantics).
    ///
    /// # Panics
    ///
    /// Panics if `features` has fewer rows than the graph has vertices
    /// or its width mismatches layer 0.
    pub fn spawn(
        graph: &CsrGraph,
        features: &Matrix,
        net: &GnnNetwork,
        cfg: ServingConfig,
    ) -> Self {
        let n = graph.num_vertices();
        assert!(features.rows() >= n, "feature rows cover every vertex");
        let mut srv = Worker {
            graph: graph.clone(),
            net: net.clone(),
            pool: BlockPool::new(),
            full: vec![None; net.num_layers()],
        };
        // Layer 0 is the one layer that consumes raw features of every
        // vertex; computing it once here is exactly the first step of
        // GnnNetwork::forward, so cached rows are bitwise right.
        let h1 = srv.net.layers_mut()[0].forward(graph, features, n);
        let (layer0, cache) = match cfg.cache_rows {
            None => (Layer0::Full(h1), None),
            Some(c) => {
                // Retain the highest-degree rows (the ones k-hop
                // closures touch most often on skewed graphs).
                let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
                ids.sort_by(|&a, &b| {
                    graph
                        .out_degree(b)
                        .cmp(&graph.out_degree(a))
                        .then(a.cmp(&b))
                });
                ids.truncate(c.min(n));
                ids.sort_unstable();
                let cache = Arc::new(FeatureCache {
                    rows: vertex_rows(&h1, &ids),
                    ids,
                    stats: CacheStats::default(),
                });
                let layer0 = Layer0::Cached {
                    cache: Arc::clone(&cache),
                    features: features.clone(),
                };
                (layer0, Some(cache))
            }
        };
        let (tx, rx) = channel::<Req>();
        let max_batch = cfg.max_batch.max(1);
        let join = std::thread::spawn(move || {
            serve_loop(&rx, &mut srv, &layer0, max_batch, cfg.max_delay);
        });
        Self {
            tx,
            join: Some(join),
            num_vertices: n,
            cache,
        }
    }

    /// Layer-0 cache counters, when [`ServingConfig::cache_rows`] bounds
    /// the table (`None` for the full-table server).
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.cache.as_ref().map(|cache| cache.snapshot())
    }

    /// Enqueues a query for vertex `v`'s embedding.
    ///
    /// # Errors
    ///
    /// [`GraphError::SeedOutOfRange`] if `v` is not a vertex of the
    /// served graph; the queue is not touched.
    pub fn query(&self, v: VertexId) -> Result<ServedFuture, GraphError> {
        if v as usize >= self.num_vertices {
            return Err(GraphError::SeedOutOfRange {
                seed: v,
                num_vertices: self.num_vertices,
            });
        }
        let (reply, rx) = channel();
        // A dead worker is only possible after Drop began; the future
        // then resolves to None via the dropped reply sender.
        let _ = self.tx.send(Req::Query { v, reply });
        Ok(ServedFuture { rx })
    }

    /// Number of vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }
}

impl Drop for InferenceServer {
    fn drop(&mut self) {
        let _ = self.tx.send(Req::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn serve_loop(
    rx: &Receiver<Req>,
    srv: &mut Worker,
    layer0: &Layer0,
    max_batch: usize,
    max_delay: Duration,
) {
    let mut queue: Vec<(VertexId, Sender<ServedReply>)> = Vec::new();
    // Per-flush seed scratch, recycled across flushes.
    let mut seeds: Vec<VertexId> = Vec::new();
    let mut oldest = Instant::now();
    loop {
        let msg = if queue.is_empty() {
            match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break,
            }
        } else {
            let budget = max_delay.saturating_sub(oldest.elapsed());
            match rx.recv_timeout(budget) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        match msg {
            Some(Req::Query { v, reply }) => {
                if queue.is_empty() {
                    oldest = Instant::now();
                }
                queue.push((v, reply));
                if queue.len() >= max_batch {
                    flush(srv, layer0, &mut queue, &mut seeds);
                }
            }
            Some(Req::Shutdown) => break,
            // Deadline trigger: the oldest request has waited long
            // enough; serve whatever is queued.
            None => flush(srv, layer0, &mut queue, &mut seeds),
        }
    }
    // Drain on shutdown so no ServedFuture hangs forever.
    flush(srv, layer0, &mut queue, &mut seeds);
}

/// Serves every queued request in one batch and empties the queue: row
/// `i` of the batch's output is bitwise identical to row `seeds[i]` of
/// the full-graph forward. `seeds` is caller-owned scratch, cleared and
/// refilled here so its allocation recycles across flushes.
fn flush(
    srv: &mut Worker,
    layer0: &Layer0,
    queue: &mut Vec<(VertexId, Sender<ServedReply>)>,
    seeds: &mut Vec<VertexId>,
) {
    if queue.is_empty() {
        return;
    }
    seeds.clear();
    seeds.extend(queue.iter().map(|(v, _)| *v));
    seeds.sort_unstable();
    seeds.dedup();
    // Layers 1..L need the seeds' exact (L-1)-hop chain; its input rows
    // (the seeds themselves under a one-layer net) come from layer 0.
    let blocks = srv.sample(seeds, srv.net.num_layers() - 1);
    let h1 = layer0.gather(srv, blocks.first().map_or(&seeds[..], |b| &b.src));
    let out = forward_chain(&mut srv.net.layers_mut()[1..], &blocks, h1);
    srv.pool.recycle(blocks);
    let batch_size = queue.len();
    let completed = Instant::now();
    for (v, reply) in queue.drain(..) {
        let pos = seeds.binary_search(&v).expect("every query is a seed");
        let _ = reply.send(ServedReply {
            embedding: out.row(pos).to_vec(),
            batch_size,
            completed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_gnn::Architecture;
    use dgcl_graph::Dataset;
    use dgcl_tensor::XavierInit;

    fn setup(arch: Architecture, dims: &[usize]) -> (CsrGraph, Matrix, GnnNetwork) {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let n = graph.num_vertices();
        let mut init = XavierInit::new(17);
        let features = init.features(n, dims[0]);
        let net = GnnNetwork::new(arch, dims, 23);
        (graph, features, net)
    }

    #[test]
    fn served_rows_are_bitwise_full_forward_rows() {
        for arch in [
            Architecture::Gcn,
            Architecture::CommNet,
            Architecture::Gin,
            Architecture::Sage,
        ] {
            // One to three layers (a chain of zero to two blocks), full
            // and bounded layer-0 table.
            for (dims, cache_rows) in [
                (&[6, 5, 3][..], None),
                (&[6, 5, 4, 3], None),
                (&[6, 5, 4, 3], Some(40)),
                (&[6, 3], Some(40)),
            ] {
                let (graph, features, net) = setup(arch, dims);
                let full = net.clone().forward(&graph, &features);
                let cfg = ServingConfig {
                    cache_rows,
                    ..ServingConfig::default()
                };
                let server = InferenceServer::spawn(&graph, &features, &net, cfg);
                let n = graph.num_vertices();
                let probes: Vec<VertexId> = (0..n as VertexId).step_by(37).collect();
                let futures: Vec<(VertexId, ServedFuture)> = probes
                    .iter()
                    .map(|&v| (v, server.query(v).expect("in range")))
                    .collect();
                for (v, fut) in futures {
                    let reply = fut.wait().expect("server alive");
                    assert_eq!(
                        reply.embedding.as_slice(),
                        full.row(v as usize),
                        "{arch:?} {dims:?} {cache_rows:?}: served row {v} differs from full forward"
                    );
                }
            }
        }
    }

    #[test]
    fn single_layer_nets_serve_from_the_cache() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 4]);
        let full = net.clone().forward(&graph, &features);
        let server = InferenceServer::spawn(&graph, &features, &net, ServingConfig::unbatched());
        let reply = server.query(5).expect("in range").wait().expect("alive");
        assert_eq!(reply.embedding.as_slice(), full.row(5));
        assert_eq!(reply.batch_size, 1);
    }

    #[test]
    fn size_trigger_batches_concurrent_requests() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 5, 3]);
        let server = InferenceServer::spawn(
            &graph,
            &features,
            &net,
            ServingConfig {
                max_batch: 4,
                // Effectively never: only the size trigger can flush.
                max_delay: Duration::from_secs(3600),
                cache_rows: None,
            },
        );
        let futs: Vec<ServedFuture> = (0..4).map(|v| server.query(v).expect("ok")).collect();
        for fut in futs {
            let reply = fut
                .wait_timeout(Duration::from_secs(30))
                .expect("size trigger fired");
            assert_eq!(reply.batch_size, 4);
        }
    }

    #[test]
    fn deadline_trigger_serves_a_lone_request() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 5, 3]);
        let server = InferenceServer::spawn(
            &graph,
            &features,
            &net,
            ServingConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(5),
                cache_rows: None,
            },
        );
        let reply = server
            .query(7)
            .expect("ok")
            .wait_timeout(Duration::from_secs(30))
            .expect("deadline trigger fired");
        assert_eq!(reply.batch_size, 1);
    }

    #[test]
    fn out_of_range_query_is_a_typed_error() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 4]);
        let server = InferenceServer::spawn(&graph, &features, &net, ServingConfig::default());
        let n = graph.num_vertices();
        let err = server.query(n as VertexId).expect_err("out of range");
        assert!(matches!(err, GraphError::SeedOutOfRange { .. }));
    }

    #[test]
    fn duplicate_queries_in_one_flush_each_get_a_reply() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 5, 3]);
        let full = net.clone().forward(&graph, &features);
        let server = InferenceServer::spawn(
            &graph,
            &features,
            &net,
            ServingConfig {
                max_batch: 3,
                max_delay: Duration::from_secs(3600),
                cache_rows: None,
            },
        );
        let futs: Vec<ServedFuture> = [9u32, 9, 9]
            .iter()
            .map(|&v| server.query(v).expect("ok"))
            .collect();
        for fut in futs {
            let reply = fut
                .wait_timeout(Duration::from_secs(30))
                .expect("size trigger fired");
            assert_eq!(reply.embedding.as_slice(), full.row(9));
            assert_eq!(reply.batch_size, 3);
        }
    }

    #[test]
    fn bounded_cache_replies_are_bitwise_and_counted() {
        // Every cache bound — zero, partial, full — serves bitwise the
        // same embeddings; only the hit/miss counters differ.
        for arch in [Architecture::Gcn, Architecture::Gin] {
            let (graph, features, net) = setup(arch, &[6, 5, 3]);
            let full = net.clone().forward(&graph, &features);
            let n = graph.num_vertices();
            for cache_rows in [Some(0), Some(n / 8), Some(n)] {
                let cfg = ServingConfig {
                    cache_rows,
                    ..ServingConfig::default()
                };
                let server = InferenceServer::spawn(&graph, &features, &net, cfg);
                let probes: Vec<VertexId> = (0..n as VertexId).step_by(41).collect();
                let futures: Vec<(VertexId, ServedFuture)> = probes
                    .iter()
                    .map(|&v| (v, server.query(v).expect("in range")))
                    .collect();
                for (v, fut) in futures {
                    let reply = fut.wait().expect("server alive");
                    assert_eq!(
                        reply.embedding.as_slice(),
                        full.row(v as usize),
                        "{arch:?} cache_rows={cache_rows:?}: row {v}"
                    );
                }
                let stats = server.cache_stats().expect("cache configured");
                assert_eq!(stats.capacity_rows, cache_rows.unwrap() as u64);
                assert!(stats.hits + stats.misses > 0, "flushes counted");
                if cache_rows == Some(0) {
                    assert_eq!(stats.hits, 0, "empty cache cannot hit");
                }
                if cache_rows == Some(n) {
                    assert_eq!(stats.misses, 0, "full cache cannot miss");
                }
            }
        }
    }

    #[test]
    fn uncached_server_reports_no_stats() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 4]);
        let server = InferenceServer::spawn(&graph, &features, &net, ServingConfig::default());
        assert!(server.cache_stats().is_none());
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let (graph, features, net) = setup(Architecture::Gcn, &[6, 5, 3]);
        let full = net.clone().forward(&graph, &features);
        let server = InferenceServer::spawn(
            &graph,
            &features,
            &net,
            ServingConfig {
                max_batch: 1024,
                max_delay: Duration::from_secs(3600),
                cache_rows: None,
            },
        );
        let fut = server.query(3).expect("ok");
        drop(server);
        let reply = fut.wait().expect("drained on shutdown");
        assert_eq!(reply.embedding.as_slice(), full.row(3));
    }
}
