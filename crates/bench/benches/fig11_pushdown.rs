//! Criterion version of Figure 11: non-fuzzy query runtime with and without
//! the §5.4 push-down optimizations (a)+(b), on a warm GROUP arena.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shapesearch_bench::{query, SEED};
use shapesearch_core::{EngineOptions, SegmenterKind, ShapeEngine};
use shapesearch_datagen::table11::DatasetId;
use std::hint::black_box;

const SCALE: f64 = 0.2;
const K: usize = 10;

fn fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);
    for id in DatasetId::ALL {
        let data = shapesearch_bench::scaled(id.generate(SEED), SCALE);
        let q = query(id.non_fuzzy_query());
        for (pushdown, label) in [(false, "no-pushdown"), (true, "pushdown")] {
            let eng = ShapeEngine::from_trendlines(data.clone()).with_options(EngineOptions {
                segmenter: SegmenterKind::SegmentTree,
                pushdown,
                ..EngineOptions::default()
            });
            eng.warm(eng.options().bin_width);
            group.bench_with_input(BenchmarkId::new(label, id.name()), &eng, |b, eng| {
                b.iter(|| black_box(eng.top_k(&q, K).expect("query")));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig11);
criterion_main!(benches);
