//! Regenerates the tables and figures of the ShapeSearch evaluation as
//! printed series.
//!
//! ```text
//! figures [--scale S] [--k K] <experiment>
//!   experiments: fig9a fig10 fig11 fig12 fig13a fig13b fig13c table11 crf all quick
//! ```
//!
//! `--scale` subsamples each collection (1.0 = the paper's full sizes;
//! `quick` runs everything at a small scale for smoke-testing).

use shapesearch_bench as bench;
use shapesearch_datagen::table11::DatasetId;
use std::time::Duration;

fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

struct Args {
    scale: f64,
    k: usize,
    what: Vec<String>,
}

fn parse_args() -> Args {
    let mut scale = 1.0;
    let mut k = 10;
    let mut what = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a number");
            }
            "--k" => {
                k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--k needs an integer");
            }
            other => what.push(other.to_owned()),
        }
    }
    if what.is_empty() {
        what.push("all".to_owned());
    }
    Args { scale, k, what }
}

fn main() {
    let args = parse_args();
    for what in &args.what {
        match what.as_str() {
            "table11" => table11(),
            "fig9a" => fig9a(),
            "fig10" => fig10(args.scale, args.k),
            "fig11" => fig11(args.scale, args.k),
            "fig12" => fig12(args.scale),
            "fig13a" => fig13a(args.scale, args.k),
            "fig13b" => fig13b(args.scale, args.k),
            "fig13c" => fig13c(args.k),
            "crf" => crf(),
            "ablation" => ablation(args.scale),
            "all" => {
                table11();
                crf();
                fig9a();
                fig10(args.scale, args.k);
                fig11(args.scale, args.k);
                fig12(args.scale);
                fig13a(args.scale, args.k);
                fig13b(args.scale, args.k);
                fig13c(args.k);
                ablation(args.scale.min(0.25));
            }
            "quick" => {
                table11();
                crf();
                fig9a();
                fig10(0.08, args.k);
                fig11(0.08, args.k);
                fig12(0.04);
                fig13a(0.05, args.k);
                fig13b(0.1, args.k);
                fig13c(args.k);
                ablation(0.05);
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                std::process::exit(2);
            }
        }
    }
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn table11() {
    header("Table 11: datasets and queries");
    println!("{:<12} {:>8} {:>8}  queries", "dataset", "viz", "length");
    for id in DatasetId::ALL {
        let (count, length) = id.shape();
        println!("{:<12} {:>8} {:>8}", id.name(), count, length);
        for q in id.fuzzy_queries() {
            println!("{:30} fuzzy:     {q}", "");
        }
        println!("{:30} non-fuzzy: {}", "", id.non_fuzzy_query());
    }
}

fn fig10(scale: f64, k: usize) {
    header(&format!(
        "Figure 10: average running time (ms), scale={scale}, k={k}"
    ));
    let rows = bench::fig10_runtimes(scale, k);
    print!("{:<12}", "dataset");
    for (_, name) in bench::FIG10_ALGOS {
        print!(" {name:>26}");
    }
    println!();
    for row in rows {
        print!("{:<12}", row.dataset);
        for (_, t) in row.runtimes {
            print!(" {:>26}", ms(t));
        }
        println!();
    }
}

fn fig11(scale: f64, k: usize) {
    header(&format!(
        "Figure 11: non-fuzzy runtime ± push-down (a)+(b), warm arena (ms), scale={scale}, k={k}"
    ));
    println!(
        "{:<12} {:>18} {:>18} {:>9}",
        "dataset", "without pushdown", "with pushdown", "speedup"
    );
    for row in bench::fig11_pushdown(scale, k) {
        let speedup = row.without.as_secs_f64() / row.with.as_secs_f64().max(1e-9);
        println!(
            "{:<12} {:>18} {:>18} {:>8.2}x",
            row.dataset,
            ms(row.without),
            ms(row.with),
            speedup
        );
    }
}

fn fig12(scale: f64) {
    let ks = [2, 5, 10, 15, 20];
    header(&format!(
        "Figure 12: top-k accuracy % (kth-score deviation %) vs DP, scale={scale}"
    ));
    for id in DatasetId::ALL {
        println!("-- {}", id.name());
        let cells = bench::fig12_accuracy(id, scale, &ks);
        print!("{:<14}", "algorithm");
        for k in ks {
            print!(" {:>16}", format!("k={k}"));
        }
        println!();
        for algo in ["Greedy", "Segment Tree", "DTW"] {
            print!("{algo:<14}");
            for k in ks {
                let cell = cells
                    .iter()
                    .find(|c| c.algorithm == algo && c.k == k)
                    .expect("cell");
                print!(
                    " {:>16}",
                    format!("{:5.1} ({:4.1})", cell.accuracy_pct, cell.deviation_pct)
                );
            }
            println!();
        }
    }
}

fn sweep(points: &[bench::SweepPoint], x_name: &str) {
    print!("{x_name:<16}");
    for (_, name) in bench::FIG13_ALGOS {
        print!(" {name:>26}");
    }
    println!();
    for p in points {
        print!("{:<16}", p.x);
        for &(_, t) in &p.runtimes {
            print!(" {:>26}", ms(t));
        }
        println!();
    }
}

fn fig13a(scale: f64, k: usize) {
    header(&format!(
        "Figure 13a: runtime (ms) vs points per visualization (Worms), scale={scale}"
    ));
    let counts = [50, 100, 200, 300, 400, 500, 600, 700, 800, 900];
    sweep(&bench::fig13a_points(&counts, scale, k), "points");
}

fn fig13b(scale: f64, k: usize) {
    header(&format!(
        "Figure 13b: runtime (ms) vs ShapeSegments (Weather), scale={scale}"
    ));
    let counts = [2, 3, 4, 5, 6];
    sweep(&bench::fig13b_segments(&counts, scale, k), "segments");
}

fn fig13c(k: usize) {
    header("Figure 13c: runtime (ms) vs number of visualizations (RealEstate)");
    let counts = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];
    sweep(&bench::fig13c_visualizations(&counts, k), "visualizations");
}

fn fig9a() {
    header("Figure 9a (scoring effectiveness): precision@gold % per Table-10 task");
    let rows = bench::fig9a_scoring(32, 64, 3);
    println!(
        "{:<6} {:>18} {:>10} {:>10}",
        "task", "ShapeSearch (DP)", "DTW", "Euclidean"
    );
    for row in rows {
        print!("{:<6}", row.task);
        for (_, acc) in row.accuracy {
            print!(" {acc:>10.1}");
        }
        println!();
    }
}

fn ablation(scale: f64) {
    header(&format!(
        "Ablation: SegmentTree bridge rule — mean score gap to DP, scale={scale}"
    ));
    println!(
        "{:<12} {:>18} {:>18}",
        "dataset", "with bridges", "without bridges"
    );
    for row in bench::bridge_ablation(scale) {
        println!(
            "{:<12} {:>18.4} {:>18.4}",
            row.dataset, row.with_bridges_gap, row.without_bridges_gap
        );
    }
}

fn crf() {
    header("NL entity tagger: 5-fold cross-validation (paper: P=73% R=90% F1=81%)");
    let (p, r, f1) = bench::crf_quality(250, 5);
    println!(
        "precision = {:.1}%  recall = {:.1}%  F1 = {:.1}%",
        100.0 * p,
        100.0 * r,
        100.0 * f1
    );
}
