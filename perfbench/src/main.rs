//! `perfbench` — the checker's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload table3|fuzz|fig10|fig11 --seed N --seconds S --trace 0|1
//! ```
//!
//! Normally started through `run.py`, which builds this binary, pins
//! `PC_THREADS` and prints the run header. With `--trace 0` telemetry
//! stays off and the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced pass
//! (plus the untraced base pass that tracing overhead is measured
//! against). `README.md` next to this crate documents the workloads,
//! the metric → layer → workload map and how to compare two commits.

mod layers;
mod suite;

use std::collections::BTreeMap;
use std::time::Instant;

use suite::{Bench, CellResult, Workload};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload table3|fuzz|fig10|fig11 --seed <n> --seconds <s> --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one untraced pass over every cell measured.
struct PassStats {
    wall_s: f64,
    cells_s: f64,
    states: usize,
    cell_ms: Vec<f64>,
    failed: usize,
    breakdown: Vec<Metric>,
}

fn summarize(bench: &Bench, results: &[CellResult], wall_s: f64) -> PassStats {
    let failed = bench.verify(results);
    PassStats {
        wall_s,
        cells_s: results.iter().map(|r| r.wall_ns as f64).sum::<f64>() / 1e9,
        states: results.iter().map(|r| r.states).sum(),
        cell_ms: results.iter().map(|r| r.wall_ns as f64 / 1e6).collect(),
        failed: failed.iter().filter(|&&f| f).count(),
        breakdown: bench.breakdown(results),
    }
}

/// Whether another pass fits: always the first one, then only while the
/// slowest pass so far would still end within `budget` seconds.
fn fits(started: Instant, budget: f64, passes: impl Iterator<Item = f64>) -> bool {
    passes
        .reduce(f64::max)
        .is_none_or(|longest| started.elapsed().as_secs_f64() + longest <= budget)
}

/// Median of each named metric across passes.
fn median_metrics(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let vals: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
            (name.clone(), median(&vals), *unit)
        })
        .collect()
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
}

fn main() {
    let args = parse_args();

    // Set-up: build the run's inputs and check the warm-up cells,
    // several times; the median is `setup_s`.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..3 {
        let t = Instant::now();
        let b = Bench::build(args.workload, args.seed);
        b.warm_up();
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let bench = bench.expect("three set-ups ran");
    let setup_s = median(&setup_s);
    println!(
        "perfbench workload={} seed={} cells={} threads={} trace={}",
        args.workload.name(),
        args.seed,
        bench.cells.len(),
        pc_rt::pool::default_threads(),
        u8::from(args.trace),
    );

    // The untraced passes: every end-to-end metric comes from these.
    // A traced run spends half its time here (the overhead base).
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut passes: Vec<PassStats> = Vec::new();
    while fits(started, budget, passes.iter().map(|p| p.wall_s)) {
        let t = Instant::now();
        let results = bench.run_pass(None);
        let wall = t.elapsed().as_secs_f64();
        passes.push(summarize(&bench, &results, wall));
    }
    let peak_rss = peak_rss_mb();
    let attempted: usize = passes.iter().map(|p| p.cell_ms.len()).sum();
    let failed: usize = passes.iter().map(|p| p.failed).sum();

    let per_pass = |f: &dyn Fn(&PassStats) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let end_to_end: Vec<Metric> = vec![
        ("wall_s".into(), per_pass(&|p| p.wall_s), "s"),
        ("setup_s".into(), setup_s, "s"),
        (
            "states_per_s".into(),
            per_pass(&|p| ratio(p.states as f64, p.wall_s)),
            "1/s",
        ),
        ("peak_rss_mb".into(), peak_rss, "MiB"),
        (
            "cell_p50_ms".into(),
            per_pass(&|p| quantile(&p.cell_ms, 0.50)),
            "ms",
        ),
        (
            "cell_p90_ms".into(),
            per_pass(&|p| quantile(&p.cell_ms, 0.90)),
            "ms",
        ),
        (
            "cell_p99_ms".into(),
            per_pass(&|p| quantile(&p.cell_ms, 0.99)),
            "ms",
        ),
    ];
    let mut breakdown = median_metrics(
        &passes
            .iter()
            .map(|p| p.breakdown.clone())
            .collect::<Vec<_>>(),
    );
    breakdown.push((
        "cell_fail_ratio".into(),
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    println!(
        "untraced: {} pass(es), {} cells attempted, {} failed",
        passes.len(),
        attempted,
        failed
    );
    print_metrics("end-to-end (median over passes):", &end_to_end);
    print_metrics("breakdown (median over passes):", &breakdown);

    if !args.trace {
        println!(
            "{}",
            result_line(failed == 0, attempted, failed, &end_to_end)
        );
        return;
    }

    // The traced passes: telemetry and allocation accounting switched on
    // directly (not `PC_TRACE=summary`, which would also turn on the
    // checker's explain pass and so change the work done).
    pc_rt::obs::set_enabled(true);
    pc_rt::obs::prof::set_alloc_tracking(true);
    let started = Instant::now();
    let mut traced: Vec<Vec<Metric>> = Vec::new();
    let mut traced_cells_s = Vec::new();
    let mut traced_failed = 0usize;
    let mut traced_attempted = 0usize;
    let mut traced_walls: Vec<f64> = Vec::new();
    while fits(started, budget, traced_walls.iter().copied()) {
        let mut acc = layers::LayerAcc::default();
        let t = Instant::now();
        let results = bench.run_pass(Some(&mut acc));
        traced_walls.push(t.elapsed().as_secs_f64());
        traced_failed += bench.verify(&results).iter().filter(|&&f| f).count();
        traced_attempted += results.len();
        traced_cells_s.push(acc.cells_ns() / 1e9);
        traced.push(acc.metrics());
    }
    pc_rt::obs::set_enabled(false);
    pc_rt::obs::prof::set_alloc_tracking(false);

    let untraced_cells_s = per_pass(&|p| p.cells_s);
    let traced_cells_s = median(&traced_cells_s);
    let mut per_layer = median_metrics(&traced);
    per_layer.extend([
        (
            "trace.overhead_ratio".into(),
            ratio(traced_cells_s, untraced_cells_s),
            "ratio",
        ),
        ("trace.traced_cells_s".into(), traced_cells_s, "s"),
        ("trace.untraced_cells_s".into(), untraced_cells_s, "s"),
    ]);
    per_layer.extend(breakdown);
    let by_name: BTreeMap<&str, f64> = per_layer.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
    println!(
        "traced: {} pass(es), tracing overhead {:.3}x ({:.3} s traced / {:.3} s untraced)",
        traced.len(),
        by_name["trace.overhead_ratio"],
        traced_cells_s,
        untraced_cells_s
    );
    print_metrics("per-layer (median over traced passes):", &per_layer);
    let failed = failed + traced_failed;
    let attempted = attempted + traced_attempted;
    println!(
        "{}",
        result_line(failed == 0, attempted, failed, &per_layer)
    );
}
