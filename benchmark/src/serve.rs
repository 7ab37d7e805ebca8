//! Serving: restore, cache build, and one serving thread that replays a
//! seeded open-loop schedule of queries and delta batches.
//!
//! Queries arrive as a Poisson process at a fixed offered rate, each
//! asking for the classes of `QUERY_VERTICES` vertices; delta batches
//! arrive at `DELTA_HZ`. The thread handles events in arrival order: a
//! due delta batch is applied at once, due queries are served from the
//! queue in batches of up to `MAX_BATCH` vertices. When nothing is due
//! it spins until the next arrival. Every latency counts from the
//! event's due time, so time a query spends queued behind a delta
//! batch or another batch is part of its latency.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distgnn_cachesim::{RequestConfig, RequestStream};
use distgnn_core::{GraphSage, SageConfig};
use distgnn_graph::{Csr, Dataset};
use distgnn_serve::{
    load_newest_model, GraphDelta, ServeConfig, ServeEngine, ServeError, ServeStats,
};
use distgnn_telemetry::{Phase, Recorder, RecorderConfig};

use crate::train::ms;
use crate::workload::{
    mix, Rng, DELTA_EDGES, DELTA_HZ, MAX_BATCH, QUERY_VERTICES, RANKING_PERIOD_S, REQUEST_ALPHA,
    SETUP_REPS,
};

/// Queries that fit in one served batch.
const QUERIES_PER_BATCH: usize = MAX_BATCH / QUERY_VERTICES;

#[derive(Clone, Copy)]
enum Event {
    /// Index of the query in `Schedule::vertices`.
    Query(usize),
    Delta(usize),
}

/// A seeded arrival schedule, sorted by due time.
pub struct Schedule {
    due_ns: Vec<u64>,
    events: Vec<Event>,
    deltas: Vec<Vec<GraphDelta>>,
    /// `QUERY_VERTICES` vertices per query, in query order.
    vertices: Vec<u32>,
    pub queries: usize,
}

impl Schedule {
    /// `secs` seconds of Poisson query arrivals at `qps`, interleaved
    /// with delta batches at `DELTA_HZ`. The popularity ranking of the
    /// queried vertices is drawn afresh every `RANKING_PERIOD_S`, so
    /// one run's latency does not hang on which few vertices happen to
    /// be hottest. Each delta batch adds random edges and removes edges
    /// of the original graph.
    pub fn new(graph: &Csr, qps: f64, secs: f64, seed: u64) -> Schedule {
        let n = graph.num_vertices();
        let stream = |period: u64| {
            let seed = mix(seed, 100 + period);
            RequestStream::new(RequestConfig { num_vertices: n, alpha: REQUEST_ALPHA, seed })
        };
        let mut period = 0;
        let mut requests = stream(period);
        let mut rng = Rng::new(mix(seed, 2));
        let end_ns = (secs * 1e9) as u64;
        let mut queries: Vec<(u64, Event)> = Vec::new();
        let mut vertices = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.unit()).ln() / qps;
            let due = (t * 1e9) as u64;
            if due >= end_ns {
                break;
            }
            if t >= (period + 1) as f64 * RANKING_PERIOD_S {
                period = (t / RANKING_PERIOD_S) as u64;
                requests = stream(period);
            }
            queries.push((due, Event::Query(queries.len())));
            vertices.extend((0..QUERY_VERTICES).map(|_| requests.next_vertex()));
        }
        let period_ns = 1e9 / DELTA_HZ;
        let mut deltas = Vec::new();
        let mut delta_events = Vec::new();
        for k in 1.. {
            let due = (k as f64 * period_ns) as u64;
            if due >= end_ns {
                break;
            }
            let mut batch = Vec::with_capacity(DELTA_EDGES);
            for _ in 0..DELTA_EDGES / 2 {
                let (src, dst) = (rng.below(n) as u32, rng.below(n) as u32);
                batch.push(GraphDelta::AddEdge { src, dst });
            }
            while batch.len() < DELTA_EDGES {
                let dst = rng.below(n) as u32;
                let adj = graph.neighbors(dst);
                if !adj.is_empty() {
                    batch.push(GraphDelta::RemoveEdge { src: adj[rng.below(adj.len())], dst });
                }
            }
            delta_events.push((due, Event::Delta(deltas.len())));
            deltas.push(batch);
        }
        let num_queries = queries.len();
        let mut all = queries;
        all.extend(delta_events);
        // Stable: a query due at the same nanosecond as a delta batch
        // keeps its place ahead of it.
        all.sort_by_key(|&(due, _)| due);
        Schedule {
            due_ns: all.iter().map(|&(d, _)| d).collect(),
            events: all.into_iter().map(|(_, e)| e).collect(),
            deltas,
            vertices,
            queries: num_queries,
        }
    }

    fn query(&self, q: usize) -> &[u32] {
        &self.vertices[q * QUERY_VERTICES..(q + 1) * QUERY_VERTICES]
    }

    /// Queries plus delta batches.
    pub fn events(&self) -> usize {
        self.events.len()
    }
}

/// What one open-loop segment measured. Times in microseconds.
#[derive(Default)]
pub struct OpenLoop {
    /// Per query, due time to answer.
    pub query_us: Vec<f64>,
    /// Per query, due time to the start of the batch that served it.
    pub queue_wait_us: Vec<f64>,
    /// Per delta batch, due time to `apply_deltas` returning.
    pub delta_visible_us: Vec<f64>,
    /// Per delta batch, the `apply_deltas` call alone.
    pub delta_apply_us: Vec<f64>,
    /// Per batch, the `query_batch` call alone, and its size in queries.
    pub batch_us: Vec<f64>,
    pub batch_sizes: Vec<usize>,
    /// How late the idle thread noticed each arrival it spun for.
    pub late_us: Vec<f64>,
    pub rows_recomputed: u64,
    pub rows_invalidated: u64,
    /// The classes served for each query, in arrival order.
    pub classes: Vec<u32>,
    pub wall_ms: f64,
    pub idle_ms: f64,
    pub stats: ServeStats,
    /// Recorder phase totals (traced passes only).
    pub query_phase_ms: f64,
    pub delta_phase_ms: f64,
}

impl OpenLoop {
    /// Pools `other`'s samples and totals into `self` (the classes stay
    /// with `other`).
    pub fn absorb(&mut self, other: &OpenLoop) {
        self.query_us.extend_from_slice(&other.query_us);
        self.queue_wait_us.extend_from_slice(&other.queue_wait_us);
        self.delta_visible_us.extend_from_slice(&other.delta_visible_us);
        self.delta_apply_us.extend_from_slice(&other.delta_apply_us);
        self.batch_us.extend_from_slice(&other.batch_us);
        self.batch_sizes.extend_from_slice(&other.batch_sizes);
        self.late_us.extend_from_slice(&other.late_us);
        self.rows_recomputed += other.rows_recomputed;
        self.rows_invalidated += other.rows_invalidated;
        self.wall_ms += other.wall_ms;
        self.idle_ms += other.idle_ms;
        self.query_phase_ms += other.query_phase_ms;
        self.delta_phase_ms += other.delta_phase_ms;
        let (s, o) = (&mut self.stats, &other.stats);
        s.queries += o.queries;
        s.batches += o.batches;
        s.cache_hits += o.cache_hits;
        s.cache_misses += o.cache_misses;
        s.deltas_applied += o.deltas_applied;
        s.rows_reaggregated += o.rows_reaggregated;
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Replays `sched` on `eng` in real time.
pub fn open_loop(eng: &mut ServeEngine, sched: &Schedule, rec: &Recorder) -> OpenLoop {
    let n = sched.events.len();
    let mut out = OpenLoop {
        query_us: Vec::with_capacity(sched.queries),
        queue_wait_us: Vec::with_capacity(sched.queries),
        delta_visible_us: Vec::with_capacity(sched.deltas.len()),
        delta_apply_us: Vec::with_capacity(sched.deltas.len()),
        batch_us: Vec::with_capacity(sched.queries),
        batch_sizes: Vec::with_capacity(sched.queries),
        late_us: Vec::with_capacity(n),
        rows_recomputed: 0,
        rows_invalidated: 0,
        classes: Vec::with_capacity(sched.vertices.len()),
        wall_ms: 0.0,
        idle_ms: 0.0,
        stats: ServeStats::default(),
        query_phase_ms: 0.0,
        delta_phase_ms: 0.0,
    };
    let before = eng.stats();
    let phases_before = rec.phase_ns();
    let mut vs = Vec::with_capacity(MAX_BATCH);
    let mut cs = vec![0u32; MAX_BATCH];
    let mut idle_ns = 0u64;
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut i = 0;
    while i < n {
        let due = sched.due_ns[i];
        let mut now = now_ns();
        if now < due {
            let idle_from = now;
            while now < due {
                now = now_ns();
            }
            out.late_us.push(us(now - due));
            idle_ns += now - idle_from;
        }
        match sched.events[i] {
            Event::Delta(b) => {
                let t = now_ns();
                let report = eng.apply_deltas(&sched.deltas[b]);
                let done = now_ns();
                out.delta_apply_us.push(us(done - t));
                out.delta_visible_us.push(us(done - due));
                out.rows_recomputed += report.rows_recomputed;
                out.rows_invalidated += report.rows_invalidated;
                i += 1;
            }
            Event::Query(_) => {
                let begin = now_ns();
                vs.clear();
                let mut j = i;
                while j < n && j - i < QUERIES_PER_BATCH && sched.due_ns[j] <= begin {
                    match sched.events[j] {
                        Event::Query(q) => vs.extend_from_slice(sched.query(q)),
                        Event::Delta(_) => break,
                    }
                    j += 1;
                }
                eng.query_batch(&vs, &mut cs[..vs.len()]);
                let done = now_ns();
                for k in i..j {
                    out.query_us.push(us(done - sched.due_ns[k]));
                    out.queue_wait_us.push(us(begin - sched.due_ns[k]));
                }
                out.classes.extend_from_slice(&cs[..vs.len()]);
                out.batch_us.push(us(done - begin));
                out.batch_sizes.push(j - i);
                i = j;
            }
        }
    }
    out.wall_ms = ms(start.elapsed());
    out.idle_ms = idle_ns as f64 / 1e6;
    let after = eng.stats();
    out.stats = ServeStats {
        queries: after.queries - before.queries,
        batches: after.batches - before.batches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        deltas_applied: after.deltas_applied - before.deltas_applied,
        rows_reaggregated: after.rows_reaggregated - before.rows_reaggregated,
    };
    let phases = rec.phase_ns();
    let phase_ms = |p: Phase| (phases[p as usize] - phases_before[p as usize]) as f64 / 1e6;
    out.query_phase_ms = phase_ms(Phase::ServeQuery);
    out.delta_phase_ms = phase_ms(Phase::ServeDelta);
    out
}

/// Serves `sched` back to back, ignoring due times: consecutive
/// queries go out in full batches, delta batches in between. Returns
/// the elapsed time and the served classes.
pub fn closed_loop(eng: &mut ServeEngine, sched: &Schedule) -> (Duration, Vec<u32>) {
    let mut classes = vec![0u32; sched.vertices.len()];
    let mut vs = Vec::with_capacity(MAX_BATCH);
    let mut served = 0;
    let start = Instant::now();
    let mut i = 0;
    while i < sched.events.len() {
        match sched.events[i] {
            Event::Delta(b) => {
                eng.apply_deltas(&sched.deltas[b]);
                i += 1;
            }
            Event::Query(_) => {
                vs.clear();
                while i < sched.events.len() && vs.len() < MAX_BATCH {
                    match sched.events[i] {
                        Event::Query(q) => vs.extend_from_slice(sched.query(q)),
                        Event::Delta(_) => break,
                    }
                    i += 1;
                }
                eng.query_batch(&vs, &mut classes[served..served + vs.len()]);
                served += vs.len();
            }
        }
    }
    (start.elapsed(), classes)
}

/// The served model and the timed serving set-up repetitions.
pub struct ServeSetup {
    pub model: GraphSage,
    pub restore_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
}

impl ServeSetup {
    /// Restore plus cache build, per repetition.
    pub fn wall_ms(&self) -> Vec<f64> {
        let restore = |i: usize| self.restore_ms.get(i).copied().unwrap_or(0.0);
        self.build_ms.iter().enumerate().map(|(i, b)| restore(i) + b).collect()
    }
}

/// Restores the served model `SETUP_REPS` times (when there is no
/// `trained` model to serve directly) and builds the serving caches as
/// often; each repetition is timed.
pub fn set_up(
    ds: &Dataset,
    trained: Option<&GraphSage>,
    shape: &SageConfig,
    ckpt_dir: &Path,
) -> Result<ServeSetup, ServeError> {
    let (mut restore_ms, mut build_ms, mut model) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let restored = match trained {
            Some(m) => m.clone(),
            None => {
                let loaded = load_newest_model(ckpt_dir, shape)?;
                restore_ms.push(ms(t0.elapsed()));
                loaded.model
            }
        };
        let (copy, features) = (restored.clone(), ds.features.clone());
        let t1 = Instant::now();
        let eng = ServeEngine::new(copy, &ds.graph, features, &serve_config());
        build_ms.push(ms(t1.elapsed()));
        drop(eng);
        model = Some(restored);
    }
    let model = model.expect("SETUP_REPS is positive");
    Ok(ServeSetup { model, restore_ms, build_ms })
}

pub fn serve_config() -> ServeConfig {
    ServeConfig { max_batch: MAX_BATCH, ..Default::default() }
}

/// A fresh engine over the set-up graph; traced passes give it an
/// enabled recorder.
pub fn engine(model: &GraphSage, ds: &Dataset, traced: bool) -> (ServeEngine, Arc<Recorder>) {
    let rec = Arc::new(if traced {
        Recorder::new(RecorderConfig::default())
    } else {
        Recorder::disabled()
    });
    let eng = ServeEngine::with_recorder(
        model.clone(),
        &ds.graph,
        ds.features.clone(),
        &serve_config(),
        rec.clone(),
    );
    (eng, rec)
}

/// Largest absolute logit difference between `eng` and a cold engine
/// rebuilt from `eng.export_graph()`, over every vertex.
pub fn cold_rebuild_gap(eng: &mut ServeEngine, model: &GraphSage) -> f32 {
    let (graph, features) = eng.export_graph();
    let mut cold = ServeEngine::new(model.clone(), &graph, features, &serve_config());
    let c = eng.num_classes();
    let (mut a, mut b) = (vec![0.0f32; c], vec![0.0f32; c]);
    let mut gap = 0.0f32;
    for v in 0..eng.num_vertices() as u32 {
        eng.logits_into(v, &mut a);
        cold.logits_into(v, &mut b);
        for (x, y) in a.iter().zip(&b) {
            gap = gap.max((x - y).abs());
        }
    }
    gap
}
