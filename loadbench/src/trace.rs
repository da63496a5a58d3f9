//! The traced run (`--trace 1`): per-layer costs measured from outside
//! the program, by timing calls into each layer's public functions.
//!
//! 1. One keep-alive client sends the workload's requests over HTTP,
//!    alternating untraced and traced calls; a traced call records a
//!    span around the client call. The difference of the two means is
//!    the tracing overhead.
//! 2. Each traced request is replayed in process right after its HTTP
//!    call, in request-path order: `handlers::route` on the same
//!    `Request`, followed by the layer calls `route` makes
//!    (`json::parse`, the protocol plan and parser, the query cache, the
//!    compute pool with its engine or shard RPC tasks, the top-k merge,
//!    result and reply rendering). Every call is a span with a name,
//!    start, end, parent and request id.
//! 3. A span's self time is its duration minus the time its children
//!    cover. The children of `handlers.route` run after it, one by one,
//!    so its self time is `route` minus the replayed layer calls; the
//!    root's self time is the round trip minus `route`: the HTTP layer.
//!    Engine stage spans are placed from the `StageObserver` durations,
//!    ending when each stage reports.
//!
//! The check: summed along the critical path (the longest of parallel
//! children), the per-layer mean self times must add up to the mean
//! round trip within [`TOLERANCE`]. A layer whose replayed children take
//! longer than the layer itself has a negative self time, which is
//! clamped to 0 and breaks the sum.

use crate::net::{delta, scrape, Conn, Scrape};
use crate::workload::{Workload, K};
use crate::{
    answer_matches, hit_ratio, metric, nproc, pruning_delta, stats, visual_spec, Bench, RunOutput,
    Topology, DATASET,
};
use shapesearch_core::{
    merge_topk, EngineOptions, EngineStage, ShapeEngine, ShapeQuery, ShardedEngine,
    SharedThresholds, Snapshot, StageObserver, TopKResult,
};
use shapesearch_datastore::{csv, extract, ExtractOptions};
use shapesearch_server::cache::Lookup;
use shapesearch_server::catalog::ShardEndpoints;
use shapesearch_server::compute::ComputePool;
use shapesearch_server::http::Request;
use shapesearch_server::json::{self, obj, Json};
use shapesearch_server::{
    handlers, protocol, AppState, CacheKey, DataSource, DatasetSpec, PooledClient, QueryCache,
    ShardPlacement,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How far the critical-path sum of layer self times may stray from the
/// mean single-client round trip, as a share of the round trip.
pub const TOLERANCE: f64 = 0.10;

/// Traced requests per workload: enough for stable means while the
/// replay (which recomputes every miss twice) stays within seconds.
/// `needle`'s round trips are two shard servers racing for the cores,
/// noisier per request than `explore`'s, so it takes twice the samples.
fn traced_requests(workload: Workload) -> usize {
    match workload {
        Workload::Explore => 96,
        Workload::Needle => 192,
        Workload::Revisit => 2000,
    }
}

/// Per-layer metric of each span name's self time.
const SELF_METRICS: [(&str, &str); 17] = [
    ("http.round_trip", "http.overhead_us"),
    ("handlers.route", "handlers.route_self_us"),
    ("json.parse", "json.parse_us"),
    ("json.render", "json.render_us"),
    ("protocol.plan", "protocol.plan_us"),
    ("protocol.results", "protocol.results_us"),
    ("protocol.shard_codec", "protocol.shard_codec_us"),
    ("parser.regex", "parser.regex_us"),
    ("parser.nl", "parser.nl_us"),
    ("cache.lookup", "cache.lookup_us"),
    ("compute.run_all", "compute.run_all_self_us"),
    ("compute.task", "compute.task_self_us"),
    ("engine.group", "engine.group_us"),
    ("engine.segment_score", "engine.segment_score_us"),
    ("engine.merge", "engine.merge_us"),
    ("rpc.roundtrip", "rpc.roundtrip_us"),
    ("engine.shard_topk", "engine.shard_topk_us"),
];

#[derive(Clone)]
struct Span {
    parent: Option<usize>,
    request: usize,
    name: &'static str,
    start: Instant,
    end: Instant,
}

impl Span {
    fn micros(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// Spans of the run, kept in memory until the end.
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn push(
        &mut self,
        parent: Option<usize>,
        request: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.0.push(Span {
            parent,
            request,
            name,
            start,
            end,
        });
        self.0.len() - 1
    }

    /// Times `f` as a span.
    fn time<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let request = self.0[parent].request;
        let start = Instant::now();
        let out = f();
        let id = self.push(Some(parent), request, name, start, Instant::now());
        (out, id)
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.0.len()];
        for (id, s) in self.0.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        children
    }

    /// Duration minus the union of the children's intervals, per span.
    fn self_micros(&self, children: &[Vec<usize>]) -> Vec<f64> {
        self.0
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                let mut intervals: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| (self.0[k].start, self.0[k].end))
                    .collect();
                intervals.sort();
                let mut covered = 0.0;
                let mut current: Option<(Instant, Instant)> = None;
                for (a, b) in intervals {
                    match current {
                        Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                        _ => {
                            if let Some((ca, cb)) = current {
                                covered += cb.duration_since(ca).as_secs_f64() * 1e6;
                            }
                            current = Some((a, b));
                        }
                    }
                }
                if let Some((ca, cb)) = current {
                    covered += cb.duration_since(ca).as_secs_f64() * 1e6;
                }
                s.micros() - covered
            })
            .collect()
    }

    /// Marks the spans on the critical path below `id`: every child, but
    /// of children that overlap in time only the one with the longest
    /// critical path. Returns that path's length.
    fn critical(
        &self,
        id: usize,
        children: &[Vec<usize>],
        selfs: &[f64],
        on_path: &mut [bool],
    ) -> f64 {
        on_path[id] = true;
        let mut kids = children[id].clone();
        kids.sort_by_key(|&k| self.0[k].start);
        let mut total = selfs[id];
        let mut i = 0;
        while i < kids.len() {
            let mut end = self.0[kids[i]].end;
            let mut j = i + 1;
            while j < kids.len() && self.0[kids[j]].start < end {
                end = end.max(self.0[kids[j]].end);
                j += 1;
            }
            let mut best = (f64::MIN, Vec::new());
            for &k in &kids[i..j] {
                let mut marks = vec![false; on_path.len()];
                let length = self.critical(k, children, selfs, &mut marks);
                if length > best.0 {
                    best = (length, marks);
                }
            }
            for (mark, new) in on_path.iter_mut().zip(best.1) {
                *mark |= new;
            }
            total += best.0;
            i = j;
        }
        total
    }

    fn to_json(&self, origin: Instant) -> Json {
        let us = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e6;
        Json::Arr(
            self.0
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("request", s.request.into()),
                        ("name", s.name.into()),
                        ("start_us", us(s.start).into()),
                        ("end_us", us(s.end).into()),
                    ])
                })
                .collect(),
        )
    }
}

/// A `StageObserver` that keeps each GROUP and SEGMENT+SCORE report with
/// its time, and sums the per-candidate bound time (which runs inside
/// SEGMENT+SCORE).
#[derive(Default)]
struct StageLog {
    events: Mutex<Vec<(EngineStage, Instant, u64)>>,
    bound_micros: AtomicU64,
}

impl StageObserver for StageLog {
    fn stage(&self, stage: EngineStage, micros: u64) {
        match stage {
            EngineStage::PruneBound => {
                self.bound_micros.fetch_add(micros, Ordering::Relaxed);
            }
            _ => self
                .events
                .lock()
                .expect("stage log lock")
                .push((stage, Instant::now(), micros)),
        }
    }
}

impl StageLog {
    /// Adds the logged stages as spans under `parent`.
    fn record(&self, spans: &mut Spans, parent: usize) {
        let request = spans.0[parent].request;
        for &(stage, end, micros) in self.events.lock().expect("stage log lock").iter() {
            let name = match stage {
                EngineStage::Group => "engine.group",
                _ => "engine.segment_score",
            };
            let start = end - std::time::Duration::from_micros(micros);
            spans.push(Some(parent), request, name, start, end);
        }
    }
}

/// What one compute task hands back to the replay.
struct TaskRun {
    start: Instant,
    end: Instant,
    /// Remote tasks: `(name, start, end)` of encode, RPC and decode.
    steps: Vec<(&'static str, Instant, Instant)>,
    outcomes: Vec<Result<Vec<TopKResult>, String>>,
    stages: Arc<StageLog>,
}

/// Counters of the replay's engine work.
#[derive(Default)]
struct EngineCounts {
    bounded: u64,
    pruned: u64,
    scored: u64,
    bound_micros: u64,
}

impl EngineCounts {
    fn add_pruning(&mut self, shared: &SharedThresholds) {
        let p = shared.snapshot();
        self.bounded += p.bounded;
        self.pruned += p.pruned;
        self.scored += p.scored;
    }

    fn add_bound_time(&mut self, log: &StageLog) {
        self.bound_micros += log.bound_micros.load(Ordering::Relaxed);
    }
}

struct Replay<'a> {
    bench: &'a Bench,
    state: Arc<AppState>,
    cache: &'a QueryCache,
    pool: ComputePool,
    remote: Arc<PooledClient>,
    /// `needle`: the two partitions the shard servers own, for the
    /// in-process top-k the RPC round trip is compared against.
    partitions: Vec<ShardedEngine>,
    spans: Spans,
    counts: EngineCounts,
    /// Σ over RPCs of round trip minus in-process top-k, in µs.
    rpc_overhead_us: f64,
    failed: usize,
}

fn inner_options() -> EngineOptions {
    EngineOptions {
        parallel: false,
        parallel_threshold: usize::MAX,
        ..EngineOptions::default()
    }
}

impl<'a> Replay<'a> {
    fn new(
        bench: &'a Bench,
        cache: &'a QueryCache,
        shard_addrs: &[String],
    ) -> Result<Self, String> {
        let state = Arc::new(AppState::new(256, nproc(), None, 2));
        let (source, shard_endpoints) = match &bench.topology {
            Topology::Snapshot { snap } => {
                (DataSource::Snapshot(snap.to_string_lossy().into()), None)
            }
            Topology::CsvPost { .. } => (DataSource::InlineCsv(bench.csv_text.clone()), None),
            Topology::Routed { csv } => (
                DataSource::Path(csv.to_string_lossy().into()),
                Some(ShardEndpoints::Explicit(
                    shard_addrs.iter().map(|a| Some(vec![a.clone()])).collect(),
                )),
            ),
        };
        state
            .catalog
            .register(DatasetSpec {
                id: Some(DATASET.into()),
                name: DATASET.into(),
                source,
                visual: visual_spec(),
                builtins: true,
                shards: None,
                shard_endpoints,
                shard_of: None,
            })
            .map_err(|e| format!("in-process registration: {e}"))?;
        let partitions = if shard_addrs.is_empty() {
            Vec::new()
        } else {
            let trendlines = bench.reference.trendlines().cloned().collect::<Vec<_>>();
            (0..shard_addrs.len())
                .map(|i| {
                    ShardedEngine::from_trendlines_shard_of(trendlines.clone(), 2, i)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?
        };
        for p in &partitions {
            p.warm();
        }
        Ok(Replay {
            bench,
            state,
            cache,
            pool: ComputePool::new(nproc()),
            remote: Arc::new(PooledClient::new()),
            partitions,
            spans: Spans::default(),
            counts: EngineCounts::default(),
            rpc_overhead_us: 0.0,
            failed: 0,
        })
    }

    /// Warms the in-process route and the replay cache the way the
    /// `revisit` server was warmed: every pool query once.
    fn warm(&mut self) {
        for (prepared, request) in self.bench.requests.iter().zip(&self.bench.pool.requests) {
            handlers::route(&self.state, &query_request(&prepared.body));
            let entry = self.state.catalog.get(DATASET).expect("registered");
            for (query, expected) in request.queries.iter().zip(&prepared.expected) {
                let ast = crate::parse_query(query).expect("pool queries parse");
                let key = cache_key(&entry, &ast);
                if let Lookup::Lead(guard) = self.cache.lookup(&key) {
                    let results = protocol::results_from_json(
                        &json::parse(expected).expect("reference renders parse"),
                    )
                    .expect("reference renders decode");
                    guard.complete(Arc::new(results));
                }
            }
        }
    }

    /// Replays request `index` of the pool under the root span `root`.
    fn replay(&mut self, root: usize, index: usize) {
        let prepared = &self.bench.requests[index];
        let request = query_request(&prepared.body);
        let request_id = self.spans.0[root].request;
        let start = Instant::now();
        let response = handlers::route(&self.state, &request);
        let route = self.spans.push(
            Some(root),
            request_id,
            "handlers.route",
            start,
            Instant::now(),
        );
        let mut ok =
            response.status == 200 && answer_matches(response.body.as_bytes(), &prepared.expected);

        let (body, _) = self.spans.time(route, "json.parse", || {
            json::parse(&prepared.body).expect("pool bodies are JSON")
        });
        let batch = matches!(body, Json::Arr(_));
        let items: Vec<Json> = match body {
            Json::Arr(items) => items,
            single => vec![single],
        };

        let plan_start = Instant::now();
        let mut parser_spans = Vec::new();
        let mut planned = Vec::with_capacity(items.len());
        for item in &items {
            let req = protocol::query_request_from_json(item).expect("pool items plan");
            let parse_start = Instant::now();
            let (ast, _notes) = protocol::parse_query(&req).expect("pool queries parse");
            let name = if req.query.is_some() {
                "parser.regex"
            } else {
                "parser.nl"
            };
            parser_spans.push((name, parse_start, Instant::now()));
            let options = req.effective_options(&self.state.default_options);
            planned.push((ast, req.k, options));
        }
        let plan = self.spans.push(
            Some(route),
            request_id,
            "protocol.plan",
            plan_start,
            Instant::now(),
        );
        for (name, s, e) in parser_spans {
            self.spans.push(Some(plan), request_id, name, s, e);
        }

        let entry = self.state.catalog.get(DATASET).expect("registered");
        let cache = self.cache;
        let ((hits, guards), _) = self.spans.time(route, "cache.lookup", || {
            let mut hits: Vec<Option<Arc<Vec<TopKResult>>>> = Vec::new();
            let mut guards = Vec::new();
            for (i, (ast, _, _)) in planned.iter().enumerate() {
                match cache.lookup(&cache_key(&entry, ast)) {
                    Lookup::Hit(v) => hits.push(Some(v)),
                    Lookup::Lead(guard) => {
                        hits.push(None);
                        guards.push((i, guard));
                    }
                    Lookup::Pending(_) => unreachable!("the replay is single-threaded"),
                }
            }
            (hits, guards)
        });

        let mut answers: Vec<Arc<Vec<TopKResult>>> = Vec::with_capacity(planned.len());
        let mut computed: Vec<Vec<TopKResult>> = Vec::new();
        if !guards.is_empty() {
            let queries: Arc<Vec<(ShapeQuery, usize)>> = Arc::new(
                guards
                    .iter()
                    .map(|(i, _)| (planned[*i].0.clone(), planned[*i].1))
                    .collect(),
            );
            let partials = self.compute(route, &entry, &queries);
            let (merged, _) = self.spans.time(route, "engine.merge", || {
                (0..queries.len())
                    .map(|q| {
                        let parts: Vec<Vec<TopKResult>> = partials
                            .iter()
                            .map(|p| p[q].clone().unwrap_or_default())
                            .collect();
                        merge_topk(parts, queries[q].1)
                    })
                    .collect::<Vec<_>>()
            });
            computed = merged;
        }
        let mut fresh = computed.into_iter();
        let mut guards = guards.into_iter();
        for hit in hits {
            answers.push(match hit {
                Some(v) => v,
                None => {
                    let value = Arc::new(fresh.next().expect("one result per miss"));
                    let (_, guard) = guards.next().expect("one guard per miss");
                    guard.complete(Arc::clone(&value));
                    value
                }
            });
        }

        let (rendered, _) = self.spans.time(route, "protocol.results", || {
            answers
                .iter()
                .map(|a| protocol::results_to_json(a))
                .collect::<Vec<_>>()
        });
        for (r, want) in rendered.iter().zip(&prepared.expected) {
            ok &= r.to_text() == *want;
        }
        let reply = if batch {
            obj([
                ("batch", rendered.len().into()),
                (
                    "responses",
                    Json::Arr(
                        rendered
                            .into_iter()
                            .map(|r| obj([("dataset", DATASET.into()), ("results", r)]))
                            .collect(),
                    ),
                ),
            ])
        } else {
            let r = rendered.into_iter().next().expect("one query");
            obj([("dataset", DATASET.into()), ("results", r)])
        };
        self.spans.time(route, "json.render", || reply.to_text());
        if !ok {
            self.failed += 1;
        }
    }

    /// The shard fan-out on the replay's compute pool: one task per shard
    /// slot, local (engine) or remote (shard RPC), like the router's.
    fn compute(
        &mut self,
        route: usize,
        entry: &Arc<shapesearch_server::DatasetEntry>,
        queries: &Arc<Vec<(ShapeQuery, usize)>>,
    ) -> Vec<Vec<Result<Vec<TopKResult>, String>>> {
        let shared = SharedThresholds::new(queries.len());
        let mut tasks: Vec<Box<dyn FnOnce() -> TaskRun + Send>> = Vec::new();
        for (slot, placement) in entry.placement.iter().enumerate() {
            let queries = Arc::clone(queries);
            let shared = shared.clone();
            tasks.push(match placement {
                ShardPlacement::Local => {
                    let shard: Arc<ShapeEngine> =
                        entry.local_shard(slot).expect("local shard loads");
                    Box::new(move || {
                        let stages = Arc::new(StageLog::default());
                        let start = Instant::now();
                        let items: Vec<(&ShapeQuery, usize)> =
                            queries.iter().map(|(q, k)| (q, *k)).collect();
                        let outcomes = shard
                            .top_k_batch_observed(&items, &inner_options(), &shared, &*stages)
                            .into_iter()
                            .map(|r| r.map_err(|e| e.to_string()))
                            .collect();
                        TaskRun {
                            start,
                            end: Instant::now(),
                            steps: Vec::new(),
                            outcomes,
                            stages,
                        }
                    })
                }
                ShardPlacement::Remote(replicas) => {
                    let endpoint = replicas[0].clone();
                    let remote = Arc::clone(&self.remote);
                    Box::new(move || {
                        let start = Instant::now();
                        let hints = vec![None; queries.len()];
                        let body = protocol::shard_request_to_json(
                            DATASET,
                            &queries,
                            &hints,
                            &inner_options(),
                            None,
                        );
                        let encoded = Instant::now();
                        let reply = remote.post(&endpoint, "/shard/query", &body);
                        let replied = Instant::now();
                        let outcomes = match reply {
                            Ok(r) if r.status == 200 => {
                                match protocol::shard_outcomes_from_json(&r.body, queries.len()) {
                                    Ok(p) => p
                                        .outcomes
                                        .into_iter()
                                        .map(|o| o.map_err(|e| e.message))
                                        .collect(),
                                    Err(e) => vec![Err(e); queries.len()],
                                }
                            }
                            Ok(r) => vec![Err(format!("status {}", r.status)); queries.len()],
                            Err(e) => vec![Err(e.to_string()); queries.len()],
                        };
                        let end = Instant::now();
                        TaskRun {
                            start,
                            end,
                            steps: vec![
                                ("protocol.shard_codec", start, encoded),
                                ("rpc.roundtrip", encoded, replied),
                                ("protocol.shard_codec", replied, end),
                            ],
                            outcomes,
                            stages: Arc::new(StageLog::default()),
                        }
                    })
                }
            });
        }
        let start = Instant::now();
        let runs = self.pool.run_all(tasks);
        let request_id = self.spans.0[route].request;
        let run_all = self.spans.push(
            Some(route),
            request_id,
            "compute.run_all",
            start,
            Instant::now(),
        );
        let mut partials = Vec::with_capacity(runs.len());
        for (slot, run) in runs.into_iter().enumerate() {
            let task = self.spans.push(
                Some(run_all),
                request_id,
                "compute.task",
                run.start,
                run.end,
            );
            run.stages.record(&mut self.spans, task);
            for &(name, s, e) in &run.steps {
                self.spans.push(Some(task), request_id, name, s, e);
            }
            if run.steps.is_empty() {
                self.counts.add_bound_time(&run.stages);
            } else {
                // The same partition in process: the RPC minus this is
                // the remote call's overhead, and its observer and
                // counters give the engine layer of the shard servers.
                let rpc = run.steps[1].2.duration_since(run.steps[1].1);
                let stages = StageLog::default();
                let shared = SharedThresholds::new(queries.len());
                let items: Vec<(&ShapeQuery, usize)> =
                    queries.iter().map(|(q, k)| (q, *k)).collect();
                let local_start = Instant::now();
                let _ = self.partitions[slot].top_k_batch_observed(
                    &items,
                    &inner_options(),
                    &shared,
                    &stages,
                );
                let local = local_start.elapsed();
                self.rpc_overhead_us += (rpc.as_secs_f64() - local.as_secs_f64()) * 1e6;
                let side = self.spans.push(
                    None,
                    request_id,
                    "engine.shard_topk",
                    local_start,
                    local_start + local,
                );
                stages.record(&mut self.spans, side);
                self.counts.add_pruning(&shared);
                self.counts.add_bound_time(&stages);
            }
            partials.push(run.outcomes);
        }
        self.counts.add_pruning(&shared);
        partials
    }
}

fn cache_key(entry: &shapesearch_server::DatasetEntry, ast: &ShapeQuery) -> CacheKey {
    CacheKey::new(
        &entry.id,
        entry.generation,
        entry.shard_count,
        &entry.placement_fp,
        ast,
        K,
        &EngineOptions::default(),
    )
}

fn query_request(body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: "/query".into(),
        headers: vec![
            ("content-type".into(), "application/json".into()),
            ("content-length".into(), body.len().to_string()),
        ],
        body: body.as_bytes().to_vec(),
    }
}

/// Set-up layer costs, timed once each.
struct SetupLayers {
    csv_parse_s: f64,
    extract_s: f64,
    group_s: f64,
    snapshot_open_s: f64,
}

fn setup_layers(bench: &Bench) -> Result<SetupLayers, String> {
    let start = Instant::now();
    let table = csv::read_str(&bench.csv_text).map_err(|e| e.to_string())?;
    let csv_parse_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let trendlines =
        extract(&table, &visual_spec(), &ExtractOptions::default()).map_err(|e| e.to_string())?;
    let extract_s = start.elapsed().as_secs_f64();
    let engine = ShardedEngine::from_trendlines(trendlines, 2);
    let start = Instant::now();
    engine.warm();
    let group_s = start.elapsed().as_secs_f64();
    let snapshot_open_s = match &bench.topology {
        Topology::Snapshot { snap } => {
            let start = Instant::now();
            let snapshot = Snapshot::open(snap).map_err(|e| e.to_string())?;
            for (a, b) in snapshot.partition_bounds(2) {
                std::hint::black_box(snapshot.partition(a, b));
            }
            start.elapsed().as_secs_f64()
        }
        _ => 0.0,
    };
    Ok(SetupLayers {
        csv_parse_s,
        extract_s,
        group_s,
        snapshot_open_s,
    })
}

fn scrape_all(addrs: &[String]) -> Result<Vec<Scrape>, String> {
    addrs
        .iter()
        .map(|a| scrape(a).map_err(|e| e.to_string()))
        .collect()
}

/// Sum of every series of `family` (all label sets).
fn family_delta(before: &Scrape, after: &Scrape, family: &str) -> f64 {
    let prefix = format!("{family}{{");
    after
        .keys()
        .filter(|k| k.starts_with(&prefix) || *k == family)
        .map(|k| delta(before, after, k))
        .sum()
}

pub fn run(bench: &Bench) -> Result<RunOutput, String> {
    let (deployment, _) = bench.timed_boot()?;
    let front = deployment.front.addr.clone();
    let shard_addrs: Vec<String> = deployment.shards.iter().map(|s| s.addr.clone()).collect();
    if bench.workload == Workload::Revisit {
        crate::warm(&front, &bench.requests)?;
    }
    let n = traced_requests(bench.workload);
    let origin = Instant::now();
    let cache = QueryCache::new(256);
    let mut replay = Replay::new(bench, &cache, &shard_addrs)?;
    if bench.workload == Workload::Revisit {
        replay.warm();
    }

    // 1. Over HTTP: even calls untraced, odd calls traced. 2. Each traced
    // call is replayed in process right after it, so a drift of the
    // machine's speed during the run moves the round trip and its layers
    // alike.
    let before = scrape(&front).map_err(|e| e.to_string())?;
    let shards_before = scrape_all(&shard_addrs)?;
    let mut conn = Conn::connect(&front).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    let mut untraced_us = Vec::with_capacity(n);
    let mut traced = Vec::with_capacity(n);
    let mut failed = 0;
    for i in 0..2 * n {
        let index = bench.order[i % bench.order.len()];
        let prepared = &bench.requests[index];
        let start = Instant::now();
        let status = conn
            .round_trip(&prepared.framed, &mut body)
            .map_err(|e| format!("traced request: {e}"))?;
        let end = Instant::now();
        if status != 200 || !answer_matches(&body, &prepared.expected) {
            failed += 1;
        }
        if i % 2 == 1 {
            let root = replay
                .spans
                .push(None, traced.len(), "http.round_trip", start, end);
            traced.push((root, index));
            replay.replay(root, index);
        } else {
            untraced_us.push(end.duration_since(start).as_secs_f64() * 1e6);
        }
    }
    drop(conn);
    let after = scrape(&front).map_err(|e| e.to_string())?;
    let shards_after = scrape_all(&shard_addrs)?;
    let resident_loads = after
        .get("shapesearch_snapshot_loads_total")
        .copied()
        .unwrap_or(0.0);
    let setup = setup_layers(bench)?;
    drop(deployment);

    // 3. Self times, per layer and along the critical path.
    let spans = &replay.spans;
    let children = spans.children();
    let selfs = spans.self_micros(&children);
    let mut on_path = vec![false; spans.0.len()];
    let mut roundtrip = Vec::with_capacity(traced.len());
    for &(root, _) in &traced {
        roundtrip.push(spans.0[root].micros());
        spans.critical(root, &children, &selfs, &mut on_path);
    }
    let per_request = traced.len().max(1) as f64;
    let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut path: BTreeMap<&str, f64> = BTreeMap::new();
    for (id, s) in spans.0.iter().enumerate() {
        *layer.entry(s.name).or_default() += selfs[id] / per_request;
        if on_path[id] {
            *path.entry(s.name).or_default() += selfs[id] / per_request;
        }
    }
    let mean_rt = stats::mean(&roundtrip);
    let layer_sum: f64 = path.values().map(|v| v.max(0.0)).sum();
    let sum_ok = (layer_sum / mean_rt - 1.0).abs() <= TOLERANCE;

    let mut compute_wait = 0.0;
    for (id, s) in spans.0.iter().enumerate() {
        if s.name == "compute.run_all" {
            let longest = children[id]
                .iter()
                .map(|&k| spans.0[k].micros())
                .fold(0.0, f64::max);
            compute_wait += (s.micros() - longest) / per_request;
        }
    }
    let requests = (2 * n) as f64;
    let counts = &replay.counts;
    // The shard servers also answered the replay's RPCs: the same
    // queries without threshold hints, as the router sends them.
    let pruning = pruning_delta(&shards_before, &shards_after);
    let mut layers: Vec<(String, Json)> = SELF_METRICS
        .iter()
        .map(|&(span, name)| {
            let v = layer.get(span).copied().unwrap_or(0.0).max(0.0);
            (name.to_owned(), metric(v, "us"))
        })
        .collect();
    let mut add = |name: &str, value: f64, unit: &str| {
        layers.push((name.to_owned(), metric(value, unit)));
    };
    add(
        "http.accepts",
        delta(&before, &after, "shapesearch_connections_accepted_total") - 1.0,
        "count",
    );
    add(
        "http.wakeups_per_req",
        delta(
            &before,
            &after,
            "shapesearch_connections_event_loop_wakeups_total",
        ) / requests,
        "count",
    );
    add("parser.nl_train_s", bench.nl_train_s, "s");
    add("cache.hit_ratio", hit_ratio(&before, &after), "ratio");
    add("compute.wait_us", compute_wait, "us");
    add(
        "engine.prune_bound_us",
        counts.bound_micros as f64 / per_request,
        "us",
    );
    add("engine.bounded", counts.bounded as f64, "count");
    add("engine.pruned", counts.pruned as f64, "count");
    add("engine.scored", counts.scored as f64, "count");
    add(
        "engine.prune_ratio",
        if counts.bounded == 0 {
            0.0
        } else {
            counts.pruned as f64 / counts.bounded as f64
        },
        "ratio",
    );
    add("engine.shard_prune_ratio", pruning.ratio(), "ratio");
    add(
        "rpc.overhead_us",
        replay.rpc_overhead_us / per_request,
        "us",
    );
    add(
        "rpc.calls",
        family_delta(&before, &after, "shapesearch_remote_requests_total"),
        "count",
    );
    add(
        "rpc.errors",
        family_delta(&before, &after, "shapesearch_remote_errors_total"),
        "count",
    );
    add("setup.csv_parse_s", setup.csv_parse_s, "s");
    add("setup.extract_s", setup.extract_s, "s");
    add("setup.group_s", setup.group_s, "s");
    add("setup.snapshot_open_s", setup.snapshot_open_s, "s");
    add("resident.loads", resident_loads, "count");
    add("trace.roundtrip_us", mean_rt, "us");
    add(
        "trace.untraced_roundtrip_us",
        stats::mean(&untraced_us),
        "us",
    );
    add(
        "trace.overhead_us",
        mean_rt - stats::mean(&untraced_us),
        "us",
    );
    add("trace.layer_sum_us", layer_sum, "us");
    let layers = Json::Obj(layers);

    let spans_path = crate::repo_root().join(".loadbench").join(format!(
        "spans-{}-seed{}.json",
        bench.workload.name(),
        bench.seed
    ));
    std::fs::write(&spans_path, replay.spans.to_json(origin).to_text())
        .map_err(|e| format!("writing spans: {e}"))?;

    let failed = failed + replay.failed;
    let attempted = 2 * n;
    let report = obj([
        ("provenance", bench.provenance(attempted)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("layers", layers.clone()),
        (
            "critical_path_us",
            Json::Obj(
                path.iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect(),
            ),
        ),
        (
            "samples",
            obj([
                ("traced_requests", traced.len().into()),
                ("untraced_requests", untraced_us.len().into()),
                ("spans", replay.spans.0.len().into()),
            ]),
        ),
        (
            "layer_sum_check",
            obj([
                ("layer_sum_us", layer_sum.into()),
                ("roundtrip_us", mean_rt.into()),
                ("tolerance", TOLERANCE.into()),
                ("ok", sum_ok.into()),
            ]),
        ),
        ("spans_file", spans_path.to_string_lossy().as_ref().into()),
    ]);
    Ok(RunOutput {
        report,
        metrics: layers,
        attempted,
        failed,
        correct: failed == 0 && sum_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_round_trip_along_the_critical_path() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut spans = Spans::default();
        let root = spans.push(None, 0, "http.round_trip", at(0), at(100));
        // Replayed after the round trip, like the in-process replay.
        let route = spans.push(Some(root), 0, "handlers.route", at(200), at(260));
        spans.push(Some(route), 0, "json.parse", at(300), at(310));
        let run_all = spans.push(Some(route), 0, "compute.run_all", at(310), at(330));
        // Two parallel tasks: only the longer one is on the path.
        spans.push(Some(run_all), 0, "compute.task", at(310), at(325));
        let long = spans.push(Some(run_all), 0, "compute.task", at(311), at(330));
        let children = spans.children();
        let selfs = spans.self_micros(&children);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(selfs[root], 40.0));
        assert!(close(selfs[route], 30.0));
        assert!(close(selfs[run_all], 0.0));
        let mut on_path = vec![false; spans.0.len()];
        let length = spans.critical(root, &children, &selfs, &mut on_path);
        assert!(close(length, 99.0), "{length}");
        assert_eq!(
            on_path,
            vec![true, true, true, true, false, true],
            "the shorter parallel task is off the path"
        );
        assert!(on_path[long]);
    }
}
