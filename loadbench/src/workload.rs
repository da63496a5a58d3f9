//! Seeded inputs of the three workloads: the generated collections, the
//! query pools and the request streams. The server only ever sees the
//! CSV or snapshot files and the request bodies built here.

use shapesearch_datastore::{csv, table_from_series, Trendline};
use shapesearch_parser::{parse_natural_language, parse_regex};
use shapesearch_server::json::{obj, Json};
use std::collections::HashSet;

/// Result count of every query.
pub const K: usize = 10;
/// Distinct queries in the `explore` and `needle` pools: 4× the server's
/// default cache capacity of 256, so a cycled pool can never hit.
pub const MISS_POOL_QUERIES: usize = 1024;
/// Distinct queries in the `revisit` pool.
pub const REVISIT_QUERIES: usize = 64;
/// Length of the `needle` collection's trendlines.
const NEEDLE_POINTS: usize = 48;
/// Trendlines in the `needle` collection: half of the 20,000 first
/// planned, because a located query costs about 80 ms on 20,000 × 48 and
/// a run must fit its reference answers and 1,000 timed requests into
/// well under a minute on 2 cores. (At 5,000 the pruned share falls
/// below 0.9 on some seeds.)
pub const NEEDLE_TRENDLINES: usize = 10_000;
/// Trendlines in the `explore` collection, a quarter of the 1,200 first
/// planned, for the same reason: a 4-segment query costs about 46 ms on
/// 1,200 × 48.
pub const EXPLORE_TRENDLINES: usize = 300;

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed
/// alone and never on a library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Explore,
    Revisit,
    Needle,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "explore" => Some(Self::Explore),
            "revisit" => Some(Self::Revisit),
            "needle" => Some(Self::Needle),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Explore => "explore",
            Self::Revisit => "revisit",
            Self::Needle => "needle",
        }
    }
}

/// One query as the client phrases it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    Regex(String),
    Nl(String),
}

impl Query {
    /// The canonical rendering of the parsed AST — what the server's
    /// cache keys on.
    pub fn canonical(&self) -> Result<String, String> {
        match self {
            Query::Regex(text) => parse_regex(text)
                .map(|q| q.to_string())
                .map_err(|e| format!("`{text}`: {e}")),
            Query::Nl(text) => parse_natural_language(text)
                .map(|p| p.query.to_string())
                .map_err(|e| format!("`{text}`: {e}")),
        }
    }

    /// The `POST /query` object for this query against `dataset`.
    pub fn to_json(&self, dataset: &str) -> Json {
        let (field, text) = match self {
            Query::Regex(text) => ("query", text),
            Query::Nl(text) => ("nl", text),
        };
        obj([
            ("dataset", dataset.into()),
            (field, text.as_str().into()),
            ("k", K.into()),
        ])
    }
}

/// One `POST /query` request: a single query, or a batch (a JSON array
/// body) when `batch` is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRequest {
    pub queries: Vec<Query>,
    pub batch: bool,
}

impl PoolRequest {
    fn single(query: Query) -> Self {
        Self {
            queries: vec![query],
            batch: false,
        }
    }

    pub fn body(&self, dataset: &str) -> String {
        if self.batch {
            Json::Arr(self.queries.iter().map(|q| q.to_json(dataset)).collect()).to_text()
        } else {
            self.queries[0].to_json(dataset).to_text()
        }
    }
}

/// A workload's request pool plus the queries whose first answers end
/// set-up (kept out of the pool so set-up warms no pool entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pool {
    pub requests: Vec<PoolRequest>,
    pub setup: Vec<Query>,
}

impl Pool {
    pub fn for_workload(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::Explore => explore_pool(seed),
            Workload::Revisit => revisit_pool(seed),
            Workload::Needle => needle_pool(seed),
        }
    }

    /// Every query of the pool, in request order.
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.requests.iter().flat_map(|r| r.queries.iter())
    }
}

/// Slope patterns fuzzy regex segments draw from: enough that the
/// 2-segment space alone holds a third of a pool.
const PATTERNS: [&str; 21] = [
    "up", "down", "flat", "10", "15", "20", "30", "45", "50", "60", "70", "80", "-10", "-15",
    "-20", "-30", "-45", "-50", "-60", "-70", "-80",
];

/// Every fuzzy regex of `segments` segments over `first` then `rest`.
fn regex_space(first: &[&str], rest: &[&str], segments: usize) -> Vec<String> {
    let mut out: Vec<String> = first.iter().map(|p| format!("[p={p}]")).collect();
    for _ in 1..segments {
        out = out
            .iter()
            .flat_map(|prefix| rest.iter().map(move |p| format!("{prefix}[p={p}]")))
            .collect();
    }
    out
}

/// A seeded, duplicate-free (by canonical AST) query drawer.
struct Distinct {
    used: HashSet<String>,
}

impl Distinct {
    fn new(reserved: &[Query]) -> Self {
        let used = reserved
            .iter()
            .map(|q| q.canonical().expect("reserved queries parse"))
            .collect();
        Self { used }
    }

    /// Claims `query` when it parses and its AST is new.
    fn claim(&mut self, query: &Query) -> bool {
        match query.canonical() {
            Ok(canon) => self.used.insert(canon),
            Err(_) => false,
        }
    }

    /// Takes the first `n` claimable queries of `candidates`.
    fn take(&mut self, candidates: impl IntoIterator<Item = Query>, n: usize) -> Vec<Query> {
        let taken: Vec<Query> = candidates
            .into_iter()
            .filter(|q| self.claim(q))
            .take(n)
            .collect();
        assert_eq!(taken.len(), n, "candidate space too small");
        taken
    }
}

/// An endless stream of seeded fuzzy regexes whose segment count cycles
/// 2, 3, 4 (so each count carries a third of the queries, whatever the
/// size of its space).
fn fuzzy_regexes(rng: &mut Rng) -> impl Iterator<Item = Query> + '_ {
    (2..=4).cycle().map(move |segments| {
        let text: String = (0..segments)
            .map(|_| format!("[p={}]", PATTERNS[rng.below(PATTERNS.len())]))
            .collect();
        Query::Regex(text)
    })
}

/// An endless stream of seeded NL phrasings of 2–4 segments.
fn nl_phrasings(rng: &mut Rng) -> impl Iterator<Item = Query> + '_ {
    const UP: [&str; 3] = ["rising", "increasing", "climbing"];
    const DOWN: [&str; 3] = ["falling", "decreasing", "dropping"];
    const FLAT: [&str; 2] = ["flat", "stable"];
    const MODS: [&str; 3] = ["", " sharply", " gradually"];
    std::iter::repeat_with(move || {
        let segments = 2 + rng.below(3);
        let words: Vec<String> = (0..segments)
            .map(|_| match rng.below(3) {
                0 => format!("{}{}", UP[rng.below(3)], MODS[rng.below(3)]),
                1 => format!("{}{}", DOWN[rng.below(3)], MODS[rng.below(3)]),
                _ => FLAT[rng.below(2)].to_owned(),
            })
            .collect();
        Query::Nl(words.join(" then "))
    })
}

fn explore_setup() -> Vec<Query> {
    vec![
        Query::Regex("[p=up][p=down]".into()),
        Query::Nl("falling then rising".into()),
    ]
}

/// `explore`: ¾ single fuzzy regexes, ⅛ NL phrasings, ⅛ batches of 4,
/// with no AST repeated anywhere in the pool.
fn explore_pool(seed: u64) -> Pool {
    const REQUESTS: usize = 768; // 576 + 96 + 96×4 = 1,056 distinct queries
    let setup = explore_setup();
    let mut rng = Rng::new(seed ^ 0xe8b1_0e00);
    let mut distinct = Distinct::new(&setup);
    let mut kinds: Vec<u8> = (0..REQUESTS).map(|i| (i % 8) as u8).collect();
    rng.shuffle(&mut kinds);
    let singles = kinds.iter().filter(|&&k| k < 6).count();
    let batches = kinds.iter().filter(|&&k| k == 7).count();
    let nls = REQUESTS - singles - batches;
    let mut regexes = distinct
        .take(fuzzy_regexes(&mut rng), singles + 4 * batches)
        .into_iter();
    let mut nl_rng = Rng::new(seed ^ 0x4e4c);
    let mut nl = distinct.take(nl_phrasings(&mut nl_rng), nls).into_iter();
    let requests = kinds
        .iter()
        .map(|&kind| match kind {
            6 => PoolRequest::single(nl.next().expect("counted")),
            7 => PoolRequest {
                queries: (0..4).map(|_| regexes.next().expect("counted")).collect(),
                batch: true,
            },
            _ => PoolRequest::single(regexes.next().expect("counted")),
        })
        .collect();
    Pool { requests, setup }
}

/// `revisit`: 64 regex and NL queries; the request stream picks among
/// them by Zipf popularity ([`Zipf`]). Every 4th popularity rank is an
/// NL phrasing, so NL carries the same share of traffic on every seed
/// (a warm NL parse costs several times a cache hit).
fn revisit_pool(seed: u64) -> Pool {
    const NL: usize = REVISIT_QUERIES / 4;
    let setup = explore_setup();
    let mut rng = Rng::new(seed ^ 0x2e71_5170);
    let mut distinct = Distinct::new(&setup);
    let mut regexes = distinct
        .take(fuzzy_regexes(&mut rng), REVISIT_QUERIES - NL)
        .into_iter();
    let mut nl_rng = Rng::new(seed ^ 0x0004_e4c2);
    let mut nl = distinct.take(nl_phrasings(&mut nl_rng), NL).into_iter();
    let requests = (1..=REVISIT_QUERIES)
        .map(|rank| {
            let query = if rank % 4 == 0 {
                nl.next()
            } else {
                regexes.next()
            };
            PoolRequest::single(query.expect("counted"))
        })
        .collect();
    Pool { requests, setup }
}

/// `needle`: 2–3 segment patterns that open with a rising segment, half
/// fuzzy and half located by x ranges.
fn needle_pool(seed: u64) -> Pool {
    const FIRST: [&str; 4] = ["up", "30", "45", "60"];
    const REST: [&str; 12] = [
        "up", "down", "flat", "30", "45", "60", "80", "-20", "-30", "-45", "-60", "-80",
    ];
    let setup = vec![Query::Regex("[p=up][p=down]".into())];
    let mut rng = Rng::new(seed ^ 0x0ee0_d1e5);
    let mut distinct = Distinct::new(&setup);
    let mut fuzzy: Vec<Query> = (2..=3)
        .flat_map(|n| regex_space(&FIRST, &REST, n))
        .map(Query::Regex)
        .collect();
    rng.shuffle(&mut fuzzy);
    let fuzzy = distinct.take(fuzzy, MISS_POOL_QUERIES / 2);
    let last = NEEDLE_POINTS - 1;
    let mut loc_rng = Rng::new(seed ^ 0x010c_a7ed);
    // Located patterns keep to 2 segments: a located segment costs several
    // times a fuzzy one, and 3 located segments rarely match anything.
    let located_candidates = std::iter::repeat_with(move || {
        let a = loc_rng.below(8);
        let b = 16 + loc_rng.below(17);
        let c = b + 4 + loc_rng.below(last - b - 3);
        let first = FIRST[loc_rng.below(FIRST.len())];
        let second = REST[loc_rng.below(REST.len())];
        Query::Regex(format!(
            "[p={first}, x.s={a}, x.e={b}][p={second}, x.s={b}, x.e={c}]"
        ))
    });
    let mut queries = fuzzy;
    queries.extend(distinct.take(located_candidates, MISS_POOL_QUERIES / 2));
    // A seeded order: a fixed alternation would lock the two clients
    // into fuzzy and located turns.
    rng.shuffle(&mut queries);
    Pool {
        requests: queries.into_iter().map(PoolRequest::single).collect(),
        setup,
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 most popular), sampled by inverse
/// CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The order in which the timed phase walks the pool: `explore` and
/// `needle` cycle through it in pool order; `revisit` draws Zipf(1.0)
/// ranks.
pub fn request_order(workload: Workload, pool_len: usize, seed: u64, len: usize) -> Vec<usize> {
    match workload {
        Workload::Explore | Workload::Needle => (0..len).map(|i| i % pool_len).collect(),
        Workload::Revisit => {
            let zipf = Zipf::new(pool_len, 1.0);
            let mut rng = Rng::new(seed ^ 0x21bf);
            (0..len).map(|_| zipf.sample(&mut rng)).collect()
        }
    }
}

/// The collection a workload queries.
pub fn trendlines(workload: Workload, seed: u64) -> Vec<Trendline> {
    match workload {
        Workload::Explore => shapesearch_datagen::table11::stocks(seed, EXPLORE_TRENDLINES, 48),
        Workload::Revisit => shapesearch_datagen::table11::real_estate(seed),
        Workload::Needle => needle_collection(seed),
    }
}

/// One clean peak (seeded position, apex and height) in every block of
/// 100 trendlines — exactly 1%, so the share of candidates pruning cannot
/// discard is the same on every seed — among strictly falling distractors
/// with seeded steepness and curvature: the shape §6.3 pruning discards
/// hardest.
fn needle_collection(seed: u64) -> Vec<Trendline> {
    let mut rng = Rng::new(seed ^ 0x000e_ed1e);
    let mut peak_at = 0;
    (0..NEEDLE_TRENDLINES)
        .map(|i| {
            if i % 100 == 0 {
                peak_at = i + rng.below(100);
            }
            let pairs: Vec<(f64, f64)> = if i == peak_at {
                let apex = 18.0 + rng.below(12) as f64;
                let height = 0.5 + rng.unit();
                (0..NEEDLE_POINTS)
                    .map(|t| {
                        let t = t as f64;
                        (t, height * (apex - (t - apex).abs()))
                    })
                    .collect()
            } else {
                let steep = 0.5 + rng.unit();
                let curve = 0.001 + 0.002 * rng.unit();
                (0..NEEDLE_POINTS)
                    .map(|t| {
                        let t = t as f64;
                        (t, -steep * t - curve * t * t)
                    })
                    .collect()
            };
            Trendline::from_pairs(format!("series{i}"), &pairs)
        })
        .collect()
}

/// The collection as `z,x,y` CSV text.
pub fn to_csv(trendlines: &[Trendline]) -> String {
    let series: Vec<(String, Vec<(f64, f64)>)> = trendlines
        .iter()
        .map(|t| (t.key.clone(), t.points.iter().map(|p| (p.x, p.y)).collect()))
        .collect();
    csv::write_str(&table_from_series("z", "x", "y", &series))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_canonicals(pool: &Pool) -> usize {
        pool.queries()
            .chain(&pool.setup)
            .map(|q| q.canonical().expect("every generated query parses"))
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn pools_are_deterministic_for_a_seed() {
        for w in [Workload::Explore, Workload::Revisit, Workload::Needle] {
            assert_eq!(Pool::for_workload(w, 7), Pool::for_workload(w, 7));
            assert_ne!(Pool::for_workload(w, 7), Pool::for_workload(w, 8));
        }
    }

    #[test]
    fn explore_pool_never_repeats_an_ast() {
        let pool = Pool::for_workload(Workload::Explore, 3);
        let queries = pool.queries().count();
        assert!(queries >= MISS_POOL_QUERIES, "{queries} queries");
        assert_eq!(distinct_canonicals(&pool), queries + pool.setup.len());
        let batches = pool.requests.iter().filter(|r| r.batch).count();
        let nl = pool
            .requests
            .iter()
            .filter(|r| matches!(r.queries[0], Query::Nl(_)))
            .count();
        assert_eq!(batches * 8, pool.requests.len());
        assert_eq!(nl * 8, pool.requests.len());
        for r in &pool.requests {
            assert_eq!(r.queries.len(), if r.batch { 4 } else { 1 });
        }
    }

    #[test]
    fn revisit_pool_has_64_distinct_asts() {
        let pool = Pool::for_workload(Workload::Revisit, 11);
        assert_eq!(pool.requests.len(), REVISIT_QUERIES);
        assert_eq!(
            distinct_canonicals(&pool),
            REVISIT_QUERIES + pool.setup.len()
        );
        for (i, r) in pool.requests.iter().enumerate() {
            assert_eq!(matches!(r.queries[0], Query::Nl(_)), (i + 1) % 4 == 0);
        }
    }

    #[test]
    fn needle_pool_opens_every_pattern_with_a_rise() {
        let pool = Pool::for_workload(Workload::Needle, 5);
        assert_eq!(pool.requests.len(), MISS_POOL_QUERIES);
        assert_eq!(
            distinct_canonicals(&pool),
            MISS_POOL_QUERIES + pool.setup.len()
        );
        let located = pool
            .queries()
            .filter(|q| matches!(q, Query::Regex(t) if t.contains("x.s=")))
            .count();
        assert_eq!(located, MISS_POOL_QUERIES / 2);
        for q in pool.queries() {
            let Query::Regex(text) = q else {
                panic!("needle pool is regex only")
            };
            assert!(
                ["[p=up", "[p=30", "[p=45", "[p=60"]
                    .iter()
                    .any(|p| text.starts_with(p)),
                "{text}"
            );
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let a = request_order(Workload::Revisit, 64, 9, 20_000);
        assert_eq!(a, request_order(Workload::Revisit, 64, 9, 20_000));
        assert_ne!(a, request_order(Workload::Revisit, 64, 10, 20_000));
        let mut counts = [0usize; 64];
        for &i in &a {
            counts[i] += 1;
        }
        // Zipf(1.0) over 64 ranks: rank 1 carries 1/H(64) ≈ 21 % of the
        // mass, rank 2 half of that, and rank 64 about 0.3 %.
        let share = counts[0] as f64 / a.len() as f64;
        assert!((0.19..0.23).contains(&share), "rank-1 share {share}");
        assert!(counts[0] > counts[1] && counts[1] > counts[63]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn cycled_orders_walk_the_pool_in_order() {
        assert_eq!(
            request_order(Workload::Explore, 3, 1, 7),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
    }

    #[test]
    fn needle_collection_is_one_percent_peaks() {
        let peaks = needle_collection(4)
            .iter()
            .filter(|t| t.points[1].y > t.points[0].y)
            .count();
        assert_eq!(peaks, NEEDLE_TRENDLINES / 100);
        assert_eq!(needle_collection(4), needle_collection(4));
    }
}
