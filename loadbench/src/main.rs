//! `loadbench`: the end-to-end benchmark of the ShapeSearch query
//! service.
//!
//! ```sh
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run builds the `shapesearch` binary, generates the workload's
//! data from the seed, boots real `serve` processes on it (timing
//! set-up several times), computes a reference answer for every
//! distinct query in process, and then drives `POST /query` from
//! closed-loop keep-alive clients, checking every answer byte for byte.
//! `--trace 1` instead measures the layers one by one (see `trace.rs`).
//! The last line of stdout is the run's JSON result; the line before it
//! is a report with provenance and every metric with its sample count.

mod net;
mod stats;
mod trace;
mod workload;

use net::{delta, frame_post, scrape, Conn, Scrape, Server};
use shapesearch_core::{EngineOptions, ShapeQuery, ShardedEngine};
use shapesearch_datastore::{csv, VisualSpec};
use shapesearch_server::json::{self, obj, Json};
use shapesearch_server::protocol::results_to_json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::{Pool, Query, Workload};

/// Closed-loop clients of the timed phase: one per core of the 2-core
/// machine the benchmark was sized on, each an analyst waiting for every
/// answer before sending the next query.
pub const CLIENTS: usize = 2;
/// Fresh boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed requests a run needs so that at least 10 samples lie beyond
/// p99; the timed phase runs past `--seconds` until it has them.
const MIN_TIMED: usize = 1000;
/// Worker threads and engine shards per server process.
const SERVER_THREADS: &str = "2";
/// Event-loop threads per server process: one loop serves both client
/// connections, so no run depends on how connections spread over loops.
const EVENT_THREADS: &str = "1";
/// Length of the precomputed request order; longer runs wrap around.
const ORDER_LEN: usize = 1 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadbench: {e}\nusage: loadbench --workload explore|revisit|needle --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The repository checkout this package sits in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package lives inside the repository")
        .to_path_buf()
}

fn run(args: &Args) -> Result<bool, String> {
    let root = repo_root();
    let bin = build_server(&root)?;
    let work = root
        .join(".loadbench")
        .join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let started = Instant::now();
    let result = Bench::prepare(args, &bin, &work).and_then(|bench| {
        eprintln!(
            "loadbench: {} inputs and references ready after {:.1} s",
            args.workload.name(),
            started.elapsed().as_secs_f64()
        );
        if args.trace {
            trace::run(&bench)
        } else {
            bench.run_e2e(args.seconds)
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    eprintln!(
        "loadbench: run done after {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let out = result?;
    println!("{}", out.report.to_text());
    println!("{}", out.result_line());
    Ok(out.correct)
}

/// Builds `shapesearch` from the checkout and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "shapesearch",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building shapesearch failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("shapesearch")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no shapesearch executable".into())
}

/// The dataset id every workload registers.
pub const DATASET: &str = "bench";

/// How a workload's servers are laid out and fed.
pub enum Topology {
    /// One server preloading a snapshot file.
    Snapshot { snap: PathBuf },
    /// One server; the CSV is registered over `POST /datasets`.
    CsvPost { body: Vec<u8> },
    /// A router whose two shard slots live in two `--shard-of` servers,
    /// every process preloading the same CSV file.
    Routed { csv: PathBuf },
}

/// A booted deployment: the front server takes the queries.
pub struct Deployment {
    pub front: Server,
    pub shards: Vec<Server>,
}

impl Deployment {
    pub fn servers(&self) -> impl Iterator<Item = &Server> {
        std::iter::once(&self.front).chain(&self.shards)
    }
}

/// One pool request, ready for the wire, with its expected answers.
pub struct Prepared {
    pub framed: Vec<u8>,
    pub body: String,
    /// The reference `results` rendering of each query, in order.
    pub expected: Vec<String>,
}

/// Everything a run needs before any timing starts.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub bin: PathBuf,
    pub topology: Topology,
    pub csv_text: String,
    pub pool: Pool,
    pub requests: Vec<Prepared>,
    pub setup: Vec<Prepared>,
    pub order: Vec<usize>,
    /// Single-shard in-process engine the references come from.
    pub reference: ShardedEngine,
    /// The first `parse_natural_language` call of this process (CRF
    /// training included).
    pub nl_train_s: f64,
}

/// The visual mapping of every generated CSV.
pub fn visual_spec() -> VisualSpec {
    VisualSpec::new("z", "x", "y")
}

/// Parses a pool query the way the server does.
pub fn parse_query(query: &Query) -> Result<ShapeQuery, String> {
    match query {
        Query::Regex(text) => shapesearch_parser::parse_regex(text).map_err(|e| e.to_string()),
        Query::Nl(text) => shapesearch_parser::parse_natural_language(text)
            .map(|p| p.query)
            .map_err(|e| e.to_string()),
    }
}

impl Bench {
    fn prepare(args: &Args, bin: &Path, work: &Path) -> Result<Bench, String> {
        let workload = args.workload;
        let trendlines = workload::trendlines(workload, args.seed);
        let csv_text = workload::to_csv(&trendlines);
        let csv_path = work.join("data.csv");
        std::fs::write(&csv_path, &csv_text).map_err(|e| format!("writing data: {e}"))?;
        let topology = match workload {
            Workload::Explore => {
                let snap = work.join("data.snap");
                let status = Command::new(bin)
                    .args(["snapshot", "--data"])
                    .arg(&csv_path)
                    .args(["--z", "z", "--x", "x", "--y", "y", "--out"])
                    .arg(&snap)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("running shapesearch snapshot: {e}"))?;
                if !status.success() {
                    return Err(format!("shapesearch snapshot failed ({status})"));
                }
                Topology::Snapshot { snap }
            }
            Workload::Revisit => {
                let body = obj([
                    ("name", DATASET.into()),
                    ("id", DATASET.into()),
                    ("csv", csv_text.as_str().into()),
                    ("z", "z".into()),
                    ("x", "x".into()),
                    ("y", "y".into()),
                ])
                .to_text();
                Topology::CsvPost {
                    body: frame_post("/datasets", &body),
                }
            }
            Workload::Needle => Topology::Routed { csv: csv_path },
        };

        let table = csv::read_str(&csv_text).map_err(|e| format!("parsing data: {e}"))?;
        let reference = ShardedEngine::new(&table, &visual_spec(), 1)
            .map_err(|e| format!("building the reference engine: {e}"))?;
        let nl_started = Instant::now();
        shapesearch_parser::parse_natural_language("rising then falling")
            .map_err(|e| format!("natural-language parser: {e}"))?;
        let nl_train_s = nl_started.elapsed().as_secs_f64();
        let pool = Pool::for_workload(workload, args.seed);
        let expected = reference_answers(&reference, pool.queries().chain(&pool.setup))?;
        let prepare = |queries: &[Query], body: String| Prepared {
            framed: frame_post("/query", &body),
            body,
            expected: queries.iter().map(|q| expected[q].clone()).collect(),
        };
        let requests = pool
            .requests
            .iter()
            .map(|r| prepare(&r.queries, r.body(DATASET)))
            .collect();
        let setup = pool
            .setup
            .iter()
            .map(|q| prepare(std::slice::from_ref(q), q.to_json(DATASET).to_text()))
            .collect();
        let order = workload::request_order(workload, pool.requests.len(), args.seed, ORDER_LEN);
        Ok(Bench {
            workload,
            seed: args.seed,
            bin: bin.to_path_buf(),
            topology,
            csv_text,
            pool,
            requests,
            setup,
            order,
            reference,
            nl_train_s,
        })
    }

    /// The flags every `serve` process of this workload gets, for
    /// provenance.
    pub fn server_flags(&self) -> String {
        let common = format!(
            "--workers {SERVER_THREADS} --event-threads {EVENT_THREADS} --shards {SERVER_THREADS}"
        );
        match &self.topology {
            Topology::Snapshot { .. } => format!("{common} --snapshot data.snap"),
            Topology::CsvPost { .. } => format!("{common} + POST /datasets csv"),
            Topology::Routed { .. } => format!(
                "shards: {common} --shard-of i/2 --data data.csv; \
                 router: {common} --shard-endpoint A --shard-endpoint B --data data.csv"
            ),
        }
    }

    fn serve_args(&self, extra: &[&str]) -> Vec<String> {
        [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            SERVER_THREADS,
            "--event-threads",
            EVENT_THREADS,
            "--shards",
            SERVER_THREADS,
        ]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
    }

    /// Spawns the workload's processes and loads its data.
    pub fn boot(&self) -> Result<Deployment, String> {
        let spawn = |args: Vec<String>| {
            Server::spawn(&self.bin, &args).map_err(|e| format!("starting shapesearch: {e}"))
        };
        match &self.topology {
            Topology::Snapshot { snap } => {
                let dir = snap.parent().expect("snapshot has a directory");
                let front = spawn(self.serve_args(&[
                    "--data-root",
                    &dir.to_string_lossy(),
                    "--snapshot",
                    &snap.to_string_lossy(),
                    "--name",
                    DATASET,
                ]))?;
                Ok(Deployment {
                    front,
                    shards: Vec::new(),
                })
            }
            Topology::CsvPost { body } => {
                let front = spawn(self.serve_args(&[]))?;
                let mut conn = Conn::connect(&front.addr).map_err(|e| e.to_string())?;
                let mut reply = Vec::new();
                let status = conn
                    .round_trip(body, &mut reply)
                    .map_err(|e| format!("registering the dataset: {e}"))?;
                if status != 201 {
                    return Err(format!(
                        "registration answered {status}: {}",
                        String::from_utf8_lossy(&reply)
                    ));
                }
                Ok(Deployment {
                    front,
                    shards: Vec::new(),
                })
            }
            Topology::Routed { csv } => {
                let csv = csv.to_string_lossy();
                let data = [
                    "--data", &csv, "--name", DATASET, "-z", "z", "-x", "x", "-y", "y",
                ];
                let shards = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..2)
                        .map(|i| {
                            let of = format!("{i}/2");
                            let mut extra = vec!["--shard-of", &of];
                            extra.extend(data);
                            let args = self.serve_args(&extra);
                            s.spawn(move || spawn(args))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("spawn thread"))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                let mut extra = vec![
                    "--shard-endpoint",
                    &shards[0].addr,
                    "--shard-endpoint",
                    &shards[1].addr,
                ];
                extra.extend(data);
                let front = spawn(self.serve_args(&extra))?;
                Ok(Deployment { front, shards })
            }
        }
    }

    /// Boots once and waits for the first answer of every request kind;
    /// returns the deployment and the seconds that took.
    fn timed_boot(&self) -> Result<(Deployment, f64), String> {
        let started = Instant::now();
        let deployment = self.boot()?;
        let mut conn = Conn::connect(&deployment.front.addr).map_err(|e| e.to_string())?;
        let mut body = Vec::new();
        for request in &self.setup {
            let status = conn
                .round_trip(&request.framed, &mut body)
                .map_err(|e| format!("set-up query: {e}"))?;
            if status != 200 || !answer_matches(&body, &request.expected) {
                return Err(format!(
                    "set-up query {} answered {status}: {}",
                    request.body,
                    String::from_utf8_lossy(&body)
                ));
            }
        }
        Ok((deployment, started.elapsed().as_secs_f64()))
    }

    /// Boots [`SETUP_REPS`] times, keeping the last deployment.
    pub fn set_up(&self) -> Result<(Deployment, Vec<f64>), String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let (deployment, secs) = self.timed_boot()?;
            times.push(secs);
            last = Some(deployment);
        }
        Ok((last.expect("at least one boot"), times))
    }

    fn run_e2e(&self, seconds: f64) -> Result<RunOutput, String> {
        let (deployment, setup_times) = self.set_up()?;
        let front = &deployment.front.addr;
        if self.workload == Workload::Revisit {
            warm(front, &self.requests)?;
        }
        let before = scrape(front).map_err(|e| e.to_string())?;
        let shards_before: Vec<Scrape> = deployment
            .shards
            .iter()
            .map(|s| scrape(&s.addr))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let pinned = pin_load_generator();
        let timed = drive(
            front,
            &self.requests,
            &self.order,
            CLIENTS,
            seconds,
            MIN_TIMED,
        );
        let after = scrape(front).map_err(|e| e.to_string())?;
        let shards_after: Vec<Scrape> = deployment
            .shards
            .iter()
            .map(|s| scrape(&s.addr))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let rss_kib: u64 = deployment
            .servers()
            .map(Server::peak_rss_kib)
            .sum::<Result<u64, _>>()
            .map_err(|e| format!("reading VmHWM: {e}"))?;
        drop(deployment);

        let attempted = timed.latencies_ms.len() + timed.transport_errors;
        let failed = timed.failed + timed.transport_errors;
        let served = delta(&before, &after, "shapesearch_request_duration_micros_count");
        // The closing scrape's own connection is counted in its reading.
        let accepts = delta(&before, &after, "shapesearch_connections_accepted_total") - 1.0;
        let hit_ratio = hit_ratio(&before, &after);
        let pruning = pruning_delta(&shards_before, &shards_after);
        let mut checks = vec![
            check(
                "served == sent",
                served == attempted as f64,
                format!("{served} vs {attempted}"),
            ),
            check(
                "accepts == clients",
                accepts == CLIENTS as f64,
                format!("{accepts} vs {CLIENTS}"),
            ),
        ];
        checks.push(match self.workload {
            Workload::Explore => check(
                "cache.hit_ratio < 0.05",
                hit_ratio < 0.05,
                format!("{hit_ratio}"),
            ),
            Workload::Revisit => check(
                "cache.hit_ratio >= 0.95",
                hit_ratio >= 0.95,
                format!("{hit_ratio}"),
            ),
            Workload::Needle => check(
                "engine.prune_ratio >= 0.9",
                pruning.ratio() >= 0.9,
                format!("{} of {} bounded", pruning.pruned, pruning.bounded),
            ),
        });
        let checks_pass = checks
            .iter()
            .all(|c| c.get("ok").and_then(Json::as_bool) == Some(true));
        let lat = &timed.latencies_ms;
        let setup_s = stats::median(&setup_times).expect("SETUP_REPS > 0");
        let error_rate = failed as f64 / attempted.max(1) as f64;
        // error_rate is 0 on a correct run, so the result line carries it
        // as `failed` / `attempted` and the report names it.
        let metrics = obj([
            ("setup_s", metric(setup_s, "s")),
            ("qps", metric(lat.len() as f64 / timed.wall_s, "1/s")),
            (
                "p50_ms",
                metric(stats::nearest_rank(lat, 50.0).unwrap_or(0.0), "ms"),
            ),
            (
                "p99_ms",
                metric(stats::nearest_rank(lat, 99.0).unwrap_or(0.0), "ms"),
            ),
            ("rss_peak_mb", metric(rss_kib as f64 / 1024.0, "MiB")),
        ]);
        let samples = obj([
            ("setup_s", setup_times.len().into()),
            ("latency", lat.len().into()),
            ("beyond_p99", stats::beyond(lat, 99.0).into()),
            ("wall_s", timed.wall_s.into()),
            (
                "window_qps",
                Json::Arr(
                    window_rates(&timed.finished_s, timed.wall_s)
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            ),
        ]);
        let report = obj([
            ("provenance", self.provenance(attempted)),
            ("pinned", pinned.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", metrics.clone()),
            ("error_rate", metric(error_rate, "ratio")),
            ("samples", samples),
            (
                "setup_s_each",
                Json::Arr(setup_times.iter().map(|&s| s.into()).collect()),
            ),
            ("reconcile", Json::Arr(checks)),
        ]);
        Ok(RunOutput {
            report,
            metrics,
            attempted,
            failed,
            correct: failed == 0 && checks_pass,
        })
    }

    pub fn provenance(&self, timed_requests: usize) -> Json {
        obj([
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("git_rev", git_rev(&repo_root()).into()),
            ("nproc", nproc().into()),
            (
                "build_profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
            ("server_flags", self.server_flags().into()),
            ("clients", CLIENTS.into()),
            ("timed_requests", timed_requests.into()),
            ("pool_requests", self.requests.len().into()),
            ("pool_queries", self.pool.queries().count().into()),
        ])
    }
}

/// Pins the load generator (every thread of this process) to CPU 0 for
/// the measured phase, so its clients never preempt a server thread on
/// the other core. Returns whether the pin took.
fn pin_load_generator() -> bool {
    net::pin(std::process::id(), "0")
}

fn check(name: &str, ok: bool, detail: String) -> Json {
    obj([
        ("check", name.into()),
        ("ok", ok.into()),
        ("detail", detail.into()),
    ])
}

/// Cores of the machine, read once: pinning the load generator narrows
/// what `available_parallelism` reports afterwards.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `git rev-parse HEAD` of the checkout plus `-dirty` when the tree has
/// changes, or `unknown` outside a git repository.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .current_dir(root)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match (git(&["rev-parse", "HEAD"]), git(&["status", "--porcelain"])) {
        (Some(rev), Some(status)) if status.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev}-dirty"),
        _ => "unknown".into(),
    }
}

/// The reference `results` rendering of every distinct query, computed
/// on the single-shard in-process engine with the queries split across
/// one thread per core.
fn reference_answers<'a>(
    engine: &ShardedEngine,
    queries: impl Iterator<Item = &'a Query>,
) -> Result<HashMap<Query, String>, String> {
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&Query> = queries.filter(|q| seen.insert(*q)).collect();
    let options = EngineOptions::default();
    let chunk = distinct.len().div_ceil(nproc()).max(1);
    let answers: Vec<Result<Vec<(Query, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                let options = &options;
                s.spawn(move || {
                    part.iter()
                        .map(|q| {
                            let ast = parse_query(q)?;
                            let result = engine
                                .top_k_with_options(&ast, workload::K, options)
                                .map_err(|e| format!("reference for {q:?}: {e}"))?;
                            Ok(((*q).clone(), results_to_json(&result).to_text()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut out = HashMap::with_capacity(distinct.len());
    for part in answers {
        out.extend(part?);
    }
    Ok(out)
}

/// True when `body` carries each expected `results` rendering, in order.
pub fn answer_matches(body: &[u8], expected: &[String]) -> bool {
    const KEY: &[u8] = b"\"results\":";
    let mut rest = body;
    for want in expected {
        let Some(at) = rest.windows(KEY.len()).position(|w| w == KEY) else {
            return false;
        };
        rest = &rest[at + KEY.len()..];
        if !rest.starts_with(want.as_bytes()) {
            return false;
        }
        rest = &rest[want.len()..];
    }
    true
}

/// Sends every pool request once (the `revisit` warm-up) and checks the
/// answers.
fn warm(addr: &str, requests: &[Prepared]) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    for r in requests {
        let status = conn
            .round_trip(&r.framed, &mut body)
            .map_err(|e| e.to_string())?;
        if status != 200 || !answer_matches(&body, &r.expected) {
            return Err(format!("warm-up query {} answered {status}", r.body));
        }
    }
    Ok(())
}

pub struct Timed {
    /// Client-side latency of every completed request.
    pub latencies_ms: Vec<f64>,
    /// When each completed request finished, in seconds into the phase.
    pub finished_s: Vec<f64>,
    /// Completed requests that got a non-2xx status or a wrong answer.
    pub failed: usize,
    /// Requests that never completed (socket errors).
    pub transport_errors: usize,
    pub wall_s: f64,
}

/// The timed phase: `clients` closed-loop keep-alive clients walk
/// `order` together until `seconds` have passed and at least
/// `min_requests` have completed.
pub fn drive(
    addr: &str,
    requests: &[Prepared],
    order: &[usize],
    clients: usize,
    seconds: f64,
    min_requests: usize,
) -> Timed {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let per_client: Vec<Timed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Timed {
                        latencies_ms: Vec::new(),
                        finished_s: Vec::new(),
                        failed: 0,
                        transport_errors: 0,
                        wall_s: 0.0,
                    };
                    let mut conn = None;
                    let mut body = Vec::new();
                    while started.elapsed() < deadline
                        || completed.load(Ordering::Relaxed) < min_requests
                    {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let request = &requests[order[i % order.len()]];
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        let Some(c) = conn.as_mut() else {
                            out.transport_errors += 1;
                            break;
                        };
                        let sent = Instant::now();
                        match c.round_trip(&request.framed, &mut body) {
                            Ok(status) => {
                                out.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                                out.finished_s.push(started.elapsed().as_secs_f64());
                                completed.fetch_add(1, Ordering::Relaxed);
                                if !(200..300).contains(&status)
                                    || !answer_matches(&body, &request.expected)
                                {
                                    out.failed += 1;
                                }
                            }
                            Err(_) => {
                                out.transport_errors += 1;
                                conn = None;
                            }
                        }
                        if out.transport_errors > 100 {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut all = Timed {
        latencies_ms: Vec::new(),
        finished_s: Vec::new(),
        failed: 0,
        transport_errors: 0,
        wall_s,
    };
    for t in per_client {
        all.latencies_ms.extend(t.latencies_ms);
        all.finished_s.extend(t.finished_s);
        all.failed += t.failed;
        all.transport_errors += t.transport_errors;
    }
    all
}

/// Completions per second in consecutive whole seconds of the phase.
fn window_rates(finished_s: &[f64], wall_s: f64) -> Vec<f64> {
    let mut counts = vec![0usize; wall_s.floor() as usize];
    for &t in finished_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64).collect()
}

/// Share of cache lookups that hit between two scrapes.
pub fn hit_ratio(before: &Scrape, after: &Scrape) -> f64 {
    let event = |e: &str| {
        delta(
            before,
            after,
            &format!("shapesearch_cache_events_total{{event=\"{e}\"}}"),
        )
    };
    let hits = event("hit");
    let lookups = hits + event("miss") + event("coalesced");
    if lookups == 0.0 {
        0.0
    } else {
        hits / lookups
    }
}

/// §6.3 pruning outcomes summed over scrapes of several servers.
#[derive(Default)]
pub struct Pruning {
    pub bounded: f64,
    pub pruned: f64,
    pub scored: f64,
}

impl Pruning {
    pub fn ratio(&self) -> f64 {
        if self.bounded == 0.0 {
            0.0
        } else {
            self.pruned / self.bounded
        }
    }
}

pub fn pruning_delta(before: &[Scrape], after: &[Scrape]) -> Pruning {
    let mut p = Pruning::default();
    for (b, a) in before.iter().zip(after) {
        let outcome = |o: &str| {
            delta(
                b,
                a,
                &format!("shapesearch_pruning_candidates_total{{outcome=\"{o}\"}}"),
            )
        };
        p.bounded += outcome("bounded");
        p.pruned += outcome("pruned");
        p.scored += outcome("scored");
    }
    p
}

/// What a run hands back: the report line (provenance and every number
/// with its samples) and the machine-readable result.
pub struct RunOutput {
    pub report: Json,
    /// The metrics of the last line: end-to-end or per-layer.
    pub metrics: Json,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

impl RunOutput {
    /// The last line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_line(&self) -> String {
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics.clone()),
        ])
        .to_text()
    }
}

/// `{"value", "unit"}` as the result line wants each metric.
pub fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_match_in_order_and_byte_for_byte() {
        let body = br#"{"batch":2,"responses":[{"results":[1],"x":0},{"results":[2]}]}"#;
        assert!(answer_matches(body, &["[1]".into(), "[2]".into()]));
        assert!(!answer_matches(body, &["[2]".into(), "[1]".into()]));
        assert!(!answer_matches(
            body,
            &["[1]".into(), "[2]".into(), "[3]".into()]
        ));
        assert!(!answer_matches(br#"{"results":[1.0]}"#, &["[1]".into()]));
        assert!(!answer_matches(
            br#"{"error":"x","status":400}"#,
            &["[]".into()]
        ));
    }
}
