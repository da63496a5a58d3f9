//! `perf_report`: the engine performance trajectory benchmark.
//!
//! Runs a fixed, seeded workload matrix — needle-in-a-haystack and
//! common-pattern queries × {1, 4} engine shards × §6.3 pruning
//! {default-on, off} — asserts the pruned results are byte-identical to
//! the unpruned ones, and writes `BENCH_engine.json` into the current
//! directory (the repo root when run through `ci.sh`). This file is the
//! start of the perf trajectory: each CI run uploads it as an artifact,
//! so regressions have a recorded baseline to be compared against.
//!
//! ```sh
//! cargo run -p shapesearch-bench --bin perf_report --release [-- --check]
//! ```
//!
//! Pruned and unpruned runs alternate rep by rep, and each workload's
//! figure is the median of the per-pair ratios (min and max alongside),
//! so a slow stretch of a shared machine hits both sides of a pair
//! instead of one whole side. The `kernel` block times its columnar and
//! scalar passes the same way.
//!
//! With `--check` the run additionally gates: pruning-on must never be
//! slower than `SHAPESEARCH_BENCH_REGRESSION_FACTOR` (default 1.25 — the real overhead is ~1 %, but shared-runner wall-clock noise makes a tighter gate flaky)
//! times pruning-off on any workload, and the needle workload must show
//! at least `SHAPESEARCH_BENCH_MIN_NEEDLE_SPEEDUP` (default 2.0) — the
//! paper's headline §6.3 effect. The columnar scoring kernel must reach
//! at least `SHAPESEARCH_BENCH_MIN_KERNEL_RATIO` (default 1.0) times the
//! scalar reference's throughput. All three gates read the median pair
//! ratio.
//!
//! The `segment_tree` block (ungated) records SegmentTree throughput in
//! trees per second for fuzzy chains of 2, 3 and 4 units.

use shapesearch_core::score::score_up;
use shapesearch_core::{
    group_collection, EngineOptions, PruningMode, PruningSnapshot, ShapeQuery, ShardedEngine,
    SharedThresholds, StatsIndex,
};
use shapesearch_datastore::Trendline;
use shapesearch_parser::parse_regex;
use std::time::Instant;

/// Deterministic dataset seed (shared with the figure benches).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Collection size: above the engine's default auto-parallel threshold,
/// so the measured path is the true default configuration.
const TRENDLINES: usize = 1228;
/// Points per trendline.
const POINTS: usize = 48;
/// Result count per query.
const K: usize = 5;
/// Timing repetitions (best-of) of the cold-load and connections blocks.
const REPS: usize = 5;
/// Interleaved timing pairs per workload config (pruned/unpruned) and
/// of the kernel block (columnar/scalar); odd, so the median is one
/// pair's ratio.
const PAIRS: usize = 9;

/// A splitmix-ish LCG in [-1, 1).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64) / ((1u64 << 31) as f64) - 1.0
    }
}

/// Needle-in-a-haystack: ~1 % clean peaks buried in strictly falling
/// distractors (mild deterministic curvature, no up-blips — exactly the
/// shape §6.3 prunes hardest).
fn needle_collection() -> Vec<Trendline> {
    let mut rng = Lcg(SEED);
    (0..TRENDLINES)
        .map(|i| {
            if i % 100 == 37 {
                let pairs: Vec<(f64, f64)> = (0..POINTS)
                    .map(|t| {
                        let t = t as f64;
                        let mid = POINTS as f64 / 2.0;
                        (t, if t < mid { t } else { 2.0 * mid - t })
                    })
                    .collect();
                Trendline::from_pairs(format!("needle{i}"), &pairs)
            } else {
                let steep = 0.5 + rng.next().abs();
                let pairs: Vec<(f64, f64)> = (0..POINTS)
                    .map(|t| {
                        let t = t as f64;
                        (t, -steep * t - 0.002 * t * t)
                    })
                    .collect();
                Trendline::from_pairs(format!("fall{i}"), &pairs)
            }
        })
        .collect()
}

/// Common-pattern workload: random walks where up-then-down matches
/// almost everything moderately well — bounds stay above the threshold,
/// so this measures pure pruning overhead.
fn common_collection() -> Vec<Trendline> {
    let mut rng = Lcg(SEED ^ 0x5bf0_3635);
    (0..TRENDLINES)
        .map(|i| {
            let mut y = 0.0;
            let pairs: Vec<(f64, f64)> = (0..POINTS)
                .map(|t| {
                    y += rng.next();
                    (t as f64, y)
                })
                .collect();
            Trendline::from_pairs(format!("walk{i}"), &pairs)
        })
        .collect()
}

/// Median, min and max of a sample (sorted in place).
#[derive(Debug, Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            median: samples[samples.len() / 2],
            min: samples[0],
            max: samples[samples.len() - 1],
        }
    }
}

/// One timed run of `query` on `engine`: wall-clock micros, the
/// canonical rendering of its results and its pruning counters.
fn run_once(engine: &ShardedEngine, query: &ShapeQuery) -> (u64, String, PruningSnapshot) {
    let shared = SharedThresholds::new(1);
    let started = Instant::now();
    let results = engine
        .top_k_batch_shared(&[(query, K)], engine.options(), &shared)
        .pop()
        .expect("one outcome")
        .expect("query runs");
    let micros = started.elapsed().as_micros().max(1) as u64;
    let rendered: Vec<String> = results
        .iter()
        .map(|r| format!("{}:{}:{:?}:{:?}", r.key, r.viz_index, r.score, r.ranges))
        .collect();
    (micros, rendered.join(";"), shared.snapshot())
}

struct ConfigReport {
    shards: usize,
    /// Median pruned wall clock.
    on_micros: u64,
    /// Median unpruned wall clock.
    off_micros: u64,
    /// Spread of the per-pair unpruned/pruned ratios.
    speedup: Spread,
    pruning: PruningSnapshot,
}

struct WorkloadReport {
    name: &'static str,
    query: &'static str,
    configs: Vec<ConfigReport>,
}

/// Runs `a` and `b` as `PAIRS` interleaved pairs, alternating which side
/// goes first, so a slow stretch of the machine hits both sides of a
/// pair instead of one whole side.
fn interleaved<T>(mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> Vec<(T, T)> {
    (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let a = a();
                (a, b())
            } else {
                let b = b();
                (a(), b)
            }
        })
        .collect()
}

/// Times one shard count as interleaved pruned/unpruned pairs, asserting
/// every run's answer is the same.
fn measure(name: &str, data: &[Trendline], shards: usize, query: &ShapeQuery) -> ConfigReport {
    let engine = |mode| {
        let options = EngineOptions {
            pruning_mode: mode,
            ..EngineOptions::default()
        };
        ShardedEngine::from_trendlines(data.to_vec(), shards).with_options(options)
    };
    let (on_engine, off_engine) = (engine(PruningMode::Auto), engine(PruningMode::Off));
    let (mut on_times, mut off_times, mut speedups) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let pairs = interleaved(
        || run_once(&on_engine, query),
        || run_once(&off_engine, query),
    );
    for (on, off) in pairs {
        assert_eq!(
            on.1, off.1,
            "{name} shards={shards}: pruning changed the answer"
        );
        on_times.push(on.0 as f64);
        off_times.push(off.0 as f64);
        speedups.push(off.0 as f64 / on.0 as f64);
        last = Some(on.2);
    }
    ConfigReport {
        shards,
        on_micros: Spread::of(&mut on_times).median as u64,
        off_micros: Spread::of(&mut off_times).median as u64,
        speedup: Spread::of(&mut speedups),
        pruning: last.expect("PAIRS > 0"),
    }
}

fn run_workload(
    name: &'static str,
    query_text: &'static str,
    data: &[Trendline],
) -> WorkloadReport {
    let query = parse_regex(query_text).expect("static query parses");
    let configs = [1usize, 4]
        .iter()
        .map(|&shards| {
            let c = measure(name, data, shards, &query);
            eprintln!(
                "{name:>7} shards={shards}: pruned={:>8}µs unpruned={:>8}µs \
                 speedup median={:.2}x min={:.2}x max={:.2}x over {PAIRS} pairs \
                 (bounded={} pruned={} scored={} bound_micros={})",
                c.on_micros,
                c.off_micros,
                c.speedup.median,
                c.speedup.min,
                c.speedup.max,
                c.pruning.bounded,
                c.pruning.pruned,
                c.pruning.scored,
                c.pruning.bound_micros,
            );
            c
        })
        .collect();
    WorkloadReport {
        name,
        query: query_text,
        configs,
    }
}

/// SegmentTree throughput on one fuzzy chain length.
struct TreeReport {
    units: usize,
    query: &'static str,
    /// Trees built per rep (one per visualization per pass).
    trees: usize,
    trees_per_sec: Spread,
}

/// Timing passes per SegmentTree rep, so one rep outlasts timer noise.
const TREE_PASSES: usize = 3;

/// SegmentTree kernel throughput: one tree per GROUPed visualization of
/// `data`, single thread, for fuzzy chains of 2, 3 and 4 units, reported
/// as trees per second over `PAIRS` reps. Ungated: it records where the
/// engine's SEGMENT+SCORE time goes.
fn run_segment_tree(data: &[Trendline]) -> Vec<TreeReport> {
    use shapesearch_core::algo::segment_tree::SegmentTreeSegmenter;
    use shapesearch_core::chain::expand_chains;
    use shapesearch_core::{Evaluator, ScoreParams, Segmenter, UdpRegistry};

    let grouped = group_collection(data, 1);
    let vizzes: Vec<_> = grouped.iter().flatten().collect();
    let (params, udps) = (ScoreParams::default(), UdpRegistry::new());
    let segmenter = SegmentTreeSegmenter::default();
    [
        (2, "[p=up][p=down]"),
        (3, "[p=down][p=flat][p=up]"),
        (4, "[p=up][p=down][p=flat][p=up]"),
    ]
    .into_iter()
    .map(|(units, query)| {
        let chains = expand_chains(&parse_regex(query).expect("static query parses"));
        let mut sink = 0.0f64;
        let mut rates: Vec<f64> = (0..PAIRS)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..TREE_PASSES {
                    for v in &vizzes {
                        let ev = Evaluator::new(v, &params, &udps);
                        sink += segmenter.match_viz(&ev, &chains).score;
                    }
                }
                (vizzes.len() * TREE_PASSES) as f64 / started.elapsed().as_secs_f64()
            })
            .collect();
        std::hint::black_box(sink);
        let report = TreeReport {
            units,
            query,
            trees: vizzes.len() * TREE_PASSES,
            trees_per_sec: Spread::of(&mut rates),
        };
        eprintln!(
            "segment_tree units={units}: median={:.0} min={:.0} max={:.0} trees/s ({} trees/rep)",
            report.trees_per_sec.median,
            report.trees_per_sec.min,
            report.trees_per_sec.max,
            report.trees,
        );
        report
    })
    .collect()
}

/// Raw scoring-kernel throughput: every start-anchored candidate window
/// of every GROUPed visualization gets an interval regression slope plus
/// a pattern score, once through the columnar [`shapesearch_core::ColumnarArena`]
/// batch kernel and once through the retained scalar [`StatsIndex`]
/// reference. Both paths must agree bit for bit (asserted here, every
/// run). The two sides are timed as `PAIRS` interleaved pairs (the side
/// that goes first alternates), and `ratio` is the spread of the
/// per-pair scalar/columnar time ratios, gated by `--check` on its
/// median independently of engine wall clock.
struct KernelReport {
    windows: u64,
    /// Median columnar throughput over the pairs.
    columnar_points_per_sec: f64,
    /// Median scalar throughput over the pairs.
    scalar_points_per_sec: f64,
    ratio: Spread,
}

/// Timing passes per rep: enough windows per measurement that the
/// sub-millisecond kernel outruns timer granularity.
const KERNEL_PASSES: usize = 8;

fn run_kernel(data: &[Trendline]) -> KernelReport {
    let grouped = group_collection(data, 1);
    let vizzes: Vec<_> = grouped.iter().flatten().collect();
    let scalar_indexes: Vec<StatsIndex> = vizzes
        .iter()
        .map(|v| StatsIndex::new(v.xs(), v.ys()))
        .collect();
    let windows_per_pass: u64 = vizzes.iter().map(|v| (v.n() - 1) as u64).sum();

    // Equivalence first (outside timing): the batch kernel must
    // reproduce the scalar reference exactly, NaNs and degenerate
    // denominators included.
    let mut out = Vec::new();
    for (v, idx) in vizzes.iter().zip(&scalar_indexes) {
        v.arena().window_slopes(v.slot(), 0, 1, v.n() - 1, &mut out);
        for (off, &slope) in out.iter().enumerate() {
            let want = idx.slope(0, 1 + off);
            assert_eq!(
                slope.to_bits(),
                want.to_bits(),
                "columnar kernel diverged from the scalar reference"
            );
        }
    }

    let mut sink = 0.0f64;
    let columnar = || {
        let started = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for v in &vizzes {
                v.arena().window_slopes(v.slot(), 0, 1, v.n() - 1, &mut out);
                for &slope in &out {
                    sink += score_up(slope);
                }
            }
        }
        started.elapsed().as_micros().max(1) as f64
    };
    let mut scalar_sink = 0.0f64;
    let scalar = || {
        let started = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for (v, idx) in vizzes.iter().zip(&scalar_indexes) {
                for j in 1..v.n() {
                    scalar_sink += score_up(idx.slope(0, j));
                }
            }
        }
        started.elapsed().as_micros().max(1) as f64
    };
    let pairs = interleaved(columnar, scalar);
    let mut columnar_times: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let mut scalar_times: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let mut ratios: Vec<f64> = pairs.iter().map(|(c, s)| s / c).collect();
    std::hint::black_box((sink, scalar_sink));

    let windows = windows_per_pass * KERNEL_PASSES as u64;
    let pps = |micros: f64| windows as f64 / (micros / 1e6);
    let report = KernelReport {
        windows,
        columnar_points_per_sec: pps(Spread::of(&mut columnar_times).median),
        scalar_points_per_sec: pps(Spread::of(&mut scalar_times).median),
        ratio: Spread::of(&mut ratios),
    };
    eprintln!(
        " kernel: columnar={:.1}M windows/s scalar={:.1}M windows/s \
         ratio median={:.2}x min={:.2}x max={:.2}x over {PAIRS} pairs ({} windows/pass)",
        report.columnar_points_per_sec / 1e6,
        report.scalar_points_per_sec / 1e6,
        report.ratio.median,
        report.ratio.min,
        report.ratio.max,
        windows_per_pass,
    );
    report
}

/// Cold-load trajectory: time-to-first-answer from an on-disk columnar
/// snapshot (mmap open + validation + one-partition seed + first query)
/// against the eager boot path (parse the CSV + EXTRACT + GROUP + first
/// query) — what a `serve --snapshot` registration saves over
/// re-extracting at boot. Both paths must answer bit-for-bit
/// identically (asserted every run); `ratio` is eager/cold, so >1 means
/// the snapshot is faster to first answer.
struct ColdLoadReport {
    eager_micros: u64,
    cold_micros: u64,
    ratio: f64,
    snapshot_bytes: usize,
}

fn run_cold_load(data: &[Trendline]) -> ColdLoadReport {
    use shapesearch_core::{snapshot, ShapeEngine};
    use std::sync::Arc;

    let query = parse_regex("[p=up][p=down]").expect("static query parses");
    let path = std::env::temp_dir().join(format!("shapesearch-bench-{}.snap", std::process::id()));
    let stats = snapshot::write(&path, data, 1).expect("write snapshot");

    // The eager baseline is a real boot: parse the CSV, EXTRACT, GROUP,
    // answer. (The snapshot build did the first three once, offline.)
    // Rust float formatting round-trips, so the parsed collection is
    // bit-identical to `data`.
    let mut csv = String::from("z,x,y\n");
    for t in data {
        for p in &t.points {
            csv.push_str(&format!("{},{},{}\n", t.key, p.x, p.y));
        }
    }
    let spec = shapesearch_datastore::VisualSpec::new("z", "x", "y");

    let options = EngineOptions::default();
    let render = |results: &[shapesearch_core::TopKResult]| {
        let rendered: Vec<String> = results
            .iter()
            .map(|r| format!("{}:{}:{:?}:{:?}", r.key, r.viz_index, r.score, r.ranges))
            .collect();
        rendered.join(";")
    };
    let first_answer = |engine: &ShardedEngine| {
        engine
            .top_k_batch_shared(&[(&query, K)], &options, &SharedThresholds::new(1))
            .pop()
            .expect("one outcome")
            .expect("query runs")
    };

    let mut best_eager = u64::MAX;
    let mut best_cold = u64::MAX;
    for _ in 0..REPS {
        let started = Instant::now();
        let table = shapesearch_datastore::csv::read_str(&csv).expect("csv parses");
        let trendlines = shapesearch_datastore::extract(
            &table,
            &spec,
            &shapesearch_datastore::ExtractOptions::default(),
        )
        .expect("extract runs");
        let engine = ShardedEngine::from_trendlines(trendlines, 1).with_options(options.clone());
        engine.warm();
        let results = first_answer(&engine);
        best_eager = best_eager.min(started.elapsed().as_micros() as u64);
        let eager_results = render(&results);

        let started = Instant::now();
        let snap = snapshot::Snapshot::open(&path).expect("open snapshot");
        let part = snap.partition(0, snap.trendline_count());
        let shard = ShapeEngine::from_trendlines(part.trendlines);
        shard.seed_grouped(snap.bin_width(), part.grouped);
        let engine =
            ShardedEngine::from_shard_engines(vec![Arc::new(shard)]).with_options(options.clone());
        let results = first_answer(&engine);
        best_cold = best_cold.min(started.elapsed().as_micros() as u64);
        let cold_results = render(&results);

        assert_eq!(
            eager_results, cold_results,
            "snapshot cold load changed the answer"
        );
    }
    std::fs::remove_file(&path).ok();

    let report = ColdLoadReport {
        eager_micros: best_eager,
        cold_micros: best_cold,
        ratio: best_eager as f64 / best_cold.max(1) as f64,
        snapshot_bytes: stats.bytes,
    };
    eprintln!(
        "cold_load: eager={:>8}µs snapshot={:>8}µs ratio={:.2}x ({} snapshot bytes)",
        report.eager_micros, report.cold_micros, report.ratio, report.snapshot_bytes,
    );
    report
}

/// Idle-connection scaling trajectory: time-to-answer of the standard
/// batch query over HTTP against a 2-event-thread server, quiet (0 idle
/// peers) vs crowded (`SHAPESEARCH_BENCH_IDLE_CONNS` idle keep-alive
/// connections parked on the same listener, default 1000). `penalty` is
/// crowded/quiet; the evented core's claim is that parked connections
/// cost readiness-table slots, not threads, so the gate
/// (`SHAPESEARCH_BENCH_MAX_IDLE_CONN_PENALTY`, default 3.0) bounds how
/// much a crowd may slow a live query.
struct ConnectionsReport {
    idle_peers: usize,
    quiet_micros: u64,
    crowded_micros: u64,
    penalty: f64,
}

fn run_connections(data: &[Trendline]) -> ConnectionsReport {
    use shapesearch_server::{json, Client, ServerConfig};
    use std::net::TcpStream;

    let mut csv = String::from("z,x,y\n");
    for t in data {
        for p in &t.points {
            csv.push_str(&format!("{},{},{}\n", t.key, p.x, p.y));
        }
    }
    let service = shapesearch_server::serve(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            event_threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let client = Client::new(service.addr());
    let batch = json::parse(
        r#"[{"dataset":"conn","query":"[p=up][p=down]","k":5},
            {"dataset":"conn","query":"[p=down][p=up]","k":5}]"#,
    )
    .expect("static batch parses");

    // Each phase re-registers the dataset first: the generation bump
    // clears the query cache, so neither phase inherits the other's
    // warm answers and the two measurements do identical work.
    let measure = |label: &str| -> u64 {
        let reply = client
            .post(
                "/datasets",
                &json::Json::Obj(vec![
                    ("name".into(), "conn".into()),
                    ("id".into(), "conn".into()),
                    ("csv".into(), csv.clone().into()),
                    ("z".into(), "z".into()),
                    ("x".into(), "x".into()),
                    ("y".into(), "y".into()),
                ]),
            )
            .expect("register");
        assert_eq!(
            reply.status,
            201,
            "{label} register: {}",
            reply.body.to_text()
        );
        let mut best = u64::MAX;
        for _ in 0..REPS {
            let started = Instant::now();
            client
                .post("/query", &batch)
                .expect("batch query")
                .expect_ok(label);
            best = best.min(started.elapsed().as_micros() as u64);
        }
        best
    };

    let quiet = measure("quiet");

    let want_idle: usize = std::env::var("SHAPESEARCH_BENCH_IDLE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let mut held: Vec<TcpStream> = Vec::with_capacity(want_idle);
    for i in 0..want_idle {
        match TcpStream::connect(service.addr()) {
            Ok(s) => held.push(s),
            Err(e) => {
                eprintln!(
                    "connections: connect #{i} failed ({e}); measuring against {} idle peers",
                    held.len()
                );
                break;
            }
        }
    }
    let crowd = held.len();
    let crowded = measure("crowded");
    drop(held);

    let report = ConnectionsReport {
        idle_peers: crowd,
        quiet_micros: quiet,
        crowded_micros: crowded,
        penalty: crowded as f64 / quiet.max(1) as f64,
    };
    eprintln!(
        "connections: quiet={:>8}µs crowded={:>8}µs penalty={:.2}x ({} idle keep-alive peers)",
        report.quiet_micros, report.crowded_micros, report.penalty, report.idle_peers,
    );
    service.shutdown();
    report
}

/// The git revision this report was produced from: baked in at compile
/// time when CI exports `SHAPESEARCH_GIT_REV`, otherwise asked of the
/// working tree at run time (numbers without provenance are unanswerable
/// questions later).
fn git_rev() -> String {
    if let Some(rev) = option_env!("SHAPESEARCH_GIT_REV") {
        return rev.to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn render_json(
    workloads: &[WorkloadReport],
    kernel: &KernelReport,
    trees: &[TreeReport],
    cold: &ColdLoadReport,
    conn: &ConnectionsReport,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_pruning\",\n");
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev()));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"trendlines\": {TRENDLINES},\n"));
    out.push_str(&format!("  \"points\": {POINTS},\n"));
    out.push_str(&format!("  \"k\": {K},\n"));
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str(&format!("  \"pairs\": {PAIRS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (wi, w) in workloads.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", w.name));
        out.push_str(&format!("      \"query\": \"{}\",\n", w.query));
        out.push_str("      \"configs\": [\n");
        for (ci, c) in w.configs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"shards\": {}, \"pruning_on_micros\": {}, \
                 \"pruning_off_micros\": {}, \"speedup\": {:.3}, \
                 \"speedup_min\": {:.3}, \"speedup_max\": {:.3}, \
                 \"pruning\": {{\"bounded\": {}, \"pruned\": {}, \"scored\": {}, \
                 \"bound_micros\": {}}}}}{}\n",
                c.shards,
                c.on_micros,
                c.off_micros,
                c.speedup.median,
                c.speedup.min,
                c.speedup.max,
                c.pruning.bounded,
                c.pruning.pruned,
                c.pruning.scored,
                c.pruning.bound_micros,
                if ci + 1 == w.configs.len() { "" } else { "," },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if wi + 1 == workloads.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernel\": {\n");
    out.push_str(&format!("    \"windows\": {},\n", kernel.windows));
    out.push_str("    \"configs\": [\n");
    out.push_str(&format!(
        "      {{\"name\": \"columnar\", \"points_per_sec\": {:.0}}},\n",
        kernel.columnar_points_per_sec
    ));
    out.push_str(&format!(
        "      {{\"name\": \"scalar\", \"points_per_sec\": {:.0}}}\n",
        kernel.scalar_points_per_sec
    ));
    out.push_str("    ],\n");
    out.push_str(&format!("    \"ratio\": {:.3},\n", kernel.ratio.median));
    out.push_str(&format!("    \"ratio_min\": {:.3},\n", kernel.ratio.min));
    out.push_str(&format!("    \"ratio_max\": {:.3}\n", kernel.ratio.max));
    out.push_str("  },\n");
    out.push_str("  \"segment_tree\": [\n");
    for (i, t) in trees.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"units\": {}, \"query\": \"{}\", \"trees\": {}, \
             \"trees_per_sec\": {:.0}, \"trees_per_sec_min\": {:.0}, \
             \"trees_per_sec_max\": {:.0}}}{}\n",
            t.units,
            t.query,
            t.trees,
            t.trees_per_sec.median,
            t.trees_per_sec.min,
            t.trees_per_sec.max,
            if i + 1 == trees.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cold_load\": {{\"eager_micros\": {}, \"cold_micros\": {}, \
         \"ratio\": {:.3}, \"snapshot_bytes\": {}}},\n",
        cold.eager_micros, cold.cold_micros, cold.ratio, cold.snapshot_bytes,
    ));
    out.push_str(&format!(
        "  \"connections\": {{\"idle_peers\": {}, \"quiet_micros\": {}, \
         \"crowded_micros\": {}, \"penalty\": {:.3}}}\n",
        conn.idle_peers, conn.quiet_micros, conn.crowded_micros, conn.penalty,
    ));
    out.push_str("}\n");
    out
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Pulls `pruning_on_micros` for (workload, shards) out of a previous
/// run's `BENCH_engine.json` (this binary's own output format).
fn baseline_micros(text: &str, workload: &str, shards: usize) -> Option<u64> {
    let name_key = format!("\"name\": \"{workload}\"");
    let section = &text[text.find(&name_key)?..];
    let needle = format!("\"shards\": {shards}, \"pruning_on_micros\": ");
    let rest = &section[section.find(&needle)? + needle.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    // A same-machine trajectory gate (opt in): point
    // SHAPESEARCH_BENCH_BASELINE at a previous run's BENCH_engine.json
    // and --check also compares absolute pruned-path times against it.
    // Read BEFORE measuring/writing — the baseline may be the very file
    // this run is about to overwrite. Off by default because absolute
    // times only compare meaningfully on the same hardware.
    let baseline = std::env::var("SHAPESEARCH_BENCH_BASELINE")
        .ok()
        .and_then(|path| match std::fs::read_to_string(&path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!("perf_report: baseline {path} unreadable ({e}); skipping that gate");
                None
            }
        });

    let workloads = vec![
        run_workload("needle", "[p=up][p=down]", &needle_collection()),
        run_workload("common", "[p=up][p=down]", &common_collection()),
    ];
    let kernel = run_kernel(&common_collection());
    let trees = run_segment_tree(&common_collection());
    let cold = run_cold_load(&common_collection());
    let conn = run_connections(&common_collection());

    let json = render_json(&workloads, &kernel, &trees, &cold, &conn);
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");

    if check {
        let regression_factor = env_f64("SHAPESEARCH_BENCH_REGRESSION_FACTOR", 1.25);
        let min_needle_speedup = env_f64("SHAPESEARCH_BENCH_MIN_NEEDLE_SPEEDUP", 2.0);
        // Kernel-throughput floor: the columnar batch kernel must stay at
        // least this many times the scalar reference's throughput. A
        // ratio (not an absolute windows/s floor) so the gate carries
        // across machines; 1.0 = "never slower than the path it
        // replaced", with the usual env override for stricter trackers.
        let min_kernel_ratio = env_f64("SHAPESEARCH_BENCH_MIN_KERNEL_RATIO", 1.0);
        // Cold-load floor: time-to-first-answer from a snapshot must be
        // at least this many times the eager parse+EXTRACT+GROUP boot
        // path. 1.0 = "never slower than the path it shortcuts"; the
        // usual env override lets same-machine trackers pin the real
        // (larger) win.
        let min_cold_ratio = env_f64("SHAPESEARCH_BENCH_MIN_COLD_LOAD_RATIO", 1.0);
        // Idle-connection ceiling: a parked keep-alive crowd may not
        // slow a live query by more than this factor. Generous by
        // default — the roundtrip is sub-millisecond, so wall-clock
        // noise is proportionally large — with the usual env override
        // for same-machine trackers.
        let max_idle_penalty = env_f64("SHAPESEARCH_BENCH_MAX_IDLE_CONN_PENALTY", 3.0);
        let mut failures = Vec::new();
        if conn.penalty > max_idle_penalty {
            failures.push(format!(
                "connections: {} idle keep-alive peers slowed the batch query {:.2}x \
                 (quiet {}µs vs crowded {}µs), above the {max_idle_penalty}x ceiling",
                conn.idle_peers, conn.penalty, conn.quiet_micros, conn.crowded_micros
            ));
        }
        if kernel.ratio.median < min_kernel_ratio {
            failures.push(format!(
                "kernel: median pair columnar/scalar throughput ratio {:.2} below the \
                 {min_kernel_ratio}x floor (median columnar {:.0} vs scalar {:.0} windows/s)",
                kernel.ratio.median, kernel.columnar_points_per_sec, kernel.scalar_points_per_sec
            ));
        }
        if cold.ratio < min_cold_ratio {
            failures.push(format!(
                "cold_load: snapshot time-to-first-answer ratio {:.2} below the \
                 {min_cold_ratio}x floor (eager {}µs vs snapshot {}µs)",
                cold.ratio, cold.eager_micros, cold.cold_micros
            ));
        }
        for w in &workloads {
            for c in &w.configs {
                // PAIRS is odd, so the median pruned/unpruned ratio is
                // exactly the reciprocal of the median speedup.
                if 1.0 / c.speedup.median > regression_factor {
                    failures.push(format!(
                        "{} shards={}: median pair ratio pruned/unpruned {:.2}x exceeds \
                         {regression_factor}x (median pruned {}µs, unpruned {}µs)",
                        w.name,
                        c.shards,
                        1.0 / c.speedup.median,
                        c.on_micros,
                        c.off_micros
                    ));
                }
                if w.name == "needle" && c.speedup.median < min_needle_speedup {
                    failures.push(format!(
                        "needle shards={}: median speedup {:.2}x below the {min_needle_speedup}x gate",
                        c.shards, c.speedup.median
                    ));
                }
                if let Some((path, text)) = &baseline {
                    if let Some(base) = baseline_micros(text, w.name, c.shards) {
                        if (c.on_micros as f64) > regression_factor * base as f64 {
                            failures.push(format!(
                                "{} shards={}: pruned path {}µs exceeds {regression_factor}x \
                                 the recorded baseline {base}µs ({path})",
                                w.name, c.shards, c.on_micros
                            ));
                        }
                    }
                }
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf_report check FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("perf_report check OK");
    }
}
