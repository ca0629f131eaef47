//! The traced pass: each cell times the public call into every layer
//! from here, then runs `check_stack` and reads its internal stages
//! from the `pc_rt::obs` spans and counters.
//!
//! The layer calls below (`CausalityGraph::build`,
//! `PersistAnalysis::build`, `crash_states`, `prepare_states`,
//! `recover_and_mount`) repeat work `check_stack` does inside; they are
//! timed on their own and kept out of the traced cell time that the
//! tracing overhead is computed from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use paracrash::explore::is_data_chunk;
use paracrash::{check_stack, crash_states, prepare_states, CheckOutcome, PersistAnalysis};
use pc_rt::obs::{self, SpanRec, TelemetrySnapshot};
use pfs::recover_and_mount;
use tracer::{CausalityGraph, EventId};

use crate::suite::{Cell, CellResult};
use crate::{quantile, ratio, Metric};

/// `check_stack`'s top-level stages, reported as self time. Nested
/// spans are reported once: `check.verdicts` runs inside
/// `check.legal_states` (same interval), and `check.classify` is taken
/// out of `check.prune` and reported as the classify layer. The stages,
/// classify, `check.unattributed_ms` and `check.span_overflow_ms` sum to
/// `check.stack_ms`.
const CHECK_STAGES: [&str; 7] = [
    "check.analyze",
    "check.enumerate",
    "check.materialize",
    "check.rep_digests",
    "check.legal_states",
    "check.prune",
    "check.cost_model",
];

/// Per-layer totals over one traced pass.
#[derive(Default)]
pub struct LayerAcc {
    trace_ns: u64,
    trace_events: u64,
    rpc_messages: u64,
    graph_ns: u64,
    persist_ns: u64,
    enumerate_ns: u64,
    states: u64,
    prepare_ns: u64,
    representatives: u64,
    recover_ns: u64,
    recover_us: Vec<f64>,
    check_ns: u64,
    /// Self time of each stage (prune without classify).
    stage_ns: [u64; CHECK_STAGES.len()],
    unattributed_ns: u64,
    span_overflow_ns: u64,
    dropped_spans: u64,
    classify_ns: u64,
    classify_calls: u64,
    classify_alloc_bytes: u64,
    states_checked: u64,
    states_pruned: u64,
    sim_seconds: f64,
    verdict_tasks: u64,
    legal_replays: u64,
    pfs_hits: u64,
    pfs_lookups: u64,
    h5_hits: u64,
    h5_lookups: u64,
    pool_busy_ns: u64,
    pool_capacity_ns: u64,
    pool_steals: u64,
    alloc_bytes: u64,
    /// Time in `FuzzCorpus::record_cell` (fuzz only).
    pub record_cell_ns: u64,
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

const MIB: f64 = (1u64 << 20) as f64;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Total duration of the outermost spans among `spans` (a span nested
/// in an earlier kept one on the same thread is skipped).
fn outermost_ns<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> (u64, u64) {
    let mut total = 0;
    let mut calls = 0;
    let mut end = 0;
    for s in spans {
        if s.start_ns >= end {
            total += s.dur_ns;
            calls += 1;
            end = s.start_ns + s.dur_ns;
        }
    }
    (total, calls)
}

impl LayerAcc {
    /// Trace generation plus `check_stack` time of the traced cells.
    pub fn cells_ns(&self) -> f64 {
        (self.trace_ns + self.check_ns) as f64
    }

    /// Run one cell with every layer timed. Telemetry must be on.
    pub fn run_cell(&mut self, cell: &Cell) -> (CellResult, Option<CheckOutcome>) {
        obs::reset();
        let t = Instant::now();
        let stack = match catch_unwind(AssertUnwindSafe(|| cell.trace())) {
            Ok(stack) => stack,
            Err(p) => {
                let wall_ns = t.elapsed().as_nanos() as u64;
                return (CellResult::from_outcome(&Err(p), wall_ns, 0), None);
            }
        };
        let trace_ns = t.elapsed().as_nanos() as u64;
        self.trace_ns += trace_ns;
        self.trace_events += stack.rec.len() as u64;
        let snap = obs::snapshot();
        self.rpc_messages += counter(&snap, "rpc.messages");
        self.alloc_bytes += snap.alloc_total.bytes;

        self.probe_layers(cell, &stack);

        obs::reset();
        let factory = cell.fs.factory(&cell.params);
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check_stack(&stack, &factory, &cell.cfg)
        }));
        let check_ns = t.elapsed().as_nanos() as u64;
        self.check_ns += check_ns;
        let snap = obs::snapshot();
        self.read_check(&snap, check_ns);
        if let Ok(o) = &outcome {
            self.states_checked += o.stats.states_checked as u64;
            self.states_pruned += o.stats.states_pruned as u64;
            self.sim_seconds += o.stats.sim_seconds;
            self.legal_replays += o.stats.legal_replays as u64;
            self.pfs_hits += o.stats.pfs_cache.hits as u64;
            self.pfs_lookups += (o.stats.pfs_cache.hits + o.stats.pfs_cache.misses) as u64;
            self.h5_hits += o.stats.h5_cache.hits as u64;
            self.h5_lookups += (o.stats.h5_cache.hits + o.stats.h5_cache.misses) as u64;
        }
        (
            CellResult::from_outcome(&outcome, trace_ns + check_ns, check_ns),
            outcome.ok(),
        )
    }

    /// Time the public entry of each layer below the checker, with the
    /// same inputs `check_stack` gives it.
    fn probe_layers(&mut self, cell: &Cell, stack: &paracrash::Stack) {
        let rec = &stack.rec;
        let t = Instant::now();
        let graph = CausalityGraph::build(rec);
        self.graph_ns += t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        let pa = PersistAnalysis::build(rec, &graph, |s| stack.journal_of(s));
        self.persist_ns += t.elapsed().as_nanos() as u64;

        // The semantic data-chunk filter `check_stack` applies in the
        // pruning modes to I/O-library programs.
        let semantic = cell.cfg.mode.prunes() && stack.h5_path.is_some();
        let filter = |e: EventId| !(semantic && is_data_chunk(rec, e));
        let t = Instant::now();
        let states = crash_states(rec, &graph, &pa, cell.cfg.k, Some(&filter));
        self.enumerate_ns += t.elapsed().as_nanos() as u64;
        self.states += states.len() as u64;

        let t = Instant::now();
        let plan = prepare_states(rec, stack.pfs.baseline(), &states);
        self.prepare_ns += t.elapsed().as_nanos() as u64;

        for (i, &rep) in plan.rep.iter().enumerate() {
            if rep != i {
                continue;
            }
            self.representatives += 1;
            let mut st = plan.prepared[i].fork();
            let t = Instant::now();
            let _ = recover_and_mount(stack.pfs.as_ref(), &mut st);
            let ns = t.elapsed().as_nanos() as u64;
            self.recover_ns += ns;
            self.recover_us.push(ns as f64 / 1e3);
        }
    }

    /// Read `check_stack`'s stages and counters from the telemetry
    /// recorded since the last reset.
    fn read_check(&mut self, snap: &TelemetrySnapshot, check_ns: u64) {
        self.alloc_bytes += snap.alloc_total.bytes;
        self.rpc_messages += counter(snap, "rpc.messages");
        self.verdict_tasks += counter(snap, "pool.tasks_queued");
        self.pool_busy_ns += counter(snap, "pool.busy_ns");
        self.pool_steals += counter(snap, "pool.steals");
        let workers = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "pool.workers")
            .map_or(1, |(_, v)| *v);
        let scope_ns: u64 = snap
            .spans
            .iter()
            .filter(|s| s.name == "pool.scope")
            .map(|s| s.dur_ns)
            .sum();
        self.pool_capacity_ns += scope_ns * workers;
        self.classify_alloc_bytes += snap
            .allocs
            .iter()
            .find(|(n, _)| n == "check.classify")
            .map_or(0, |(_, a)| a.bytes);

        // `perfbench` opens no spans of its own, so `check_stack` runs at
        // depth 0 and its top-level stages at depth 1.
        let mut cell_stages = [0u64; CHECK_STAGES.len()];
        for s in snap.spans.iter().filter(|s| s.depth == 1) {
            if let Some(k) = CHECK_STAGES.iter().position(|&n| n == s.name) {
                cell_stages[k] += s.dur_ns;
            }
        }
        let (classify_ns, classify_calls) =
            outermost_ns(snap.spans.iter().filter(|s| s.name == "check.classify"));
        // Classify runs inside prune: report prune as self time.
        let prune = CHECK_STAGES
            .iter()
            .position(|&n| n == "check.prune")
            .expect("listed");
        if cell_stages[prune] > 0 {
            cell_stages[prune] = cell_stages[prune].saturating_sub(classify_ns);
        }
        let attributed = cell_stages.iter().sum::<u64>() + classify_ns;
        let rest = check_ns.saturating_sub(attributed);
        // Past the registry's span cap the stages that close late are
        // lost; their time is kept apart from the unattributed time.
        if snap.dropped_spans > 0 {
            self.dropped_spans += snap.dropped_spans;
            self.span_overflow_ns += rest;
        } else {
            self.unattributed_ns += rest;
        }
        for (acc, ns) in self.stage_ns.iter_mut().zip(cell_stages) {
            *acc += ns;
        }
        self.classify_ns += classify_ns;
        self.classify_calls += classify_calls;
    }

    /// The per-layer metrics of this pass (see `README.md` for the map
    /// to end-to-end metrics).
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m: Vec<Metric> = vec![
            ("workloads.trace_ms".into(), ms(self.trace_ns), "ms"),
            (
                "workloads.trace_events".into(),
                self.trace_events as f64,
                "count",
            ),
            (
                "simnet.rpc_messages".into(),
                self.rpc_messages as f64,
                "count",
            ),
            ("tracer.graph_ms".into(), ms(self.graph_ns), "ms"),
            ("persist.analysis_ms".into(), ms(self.persist_ns), "ms"),
            ("emulate.enumerate_ms".into(), ms(self.enumerate_ns), "ms"),
            ("emulate.states".into(), self.states as f64, "count"),
            (
                "explore.states_pruned".into(),
                self.states_pruned as f64,
                "count",
            ),
            ("explore.sim_seconds".into(), self.sim_seconds, "s"),
            (
                "explore.verdict_useful_ratio".into(),
                ratio(self.states_checked as f64, self.verdict_tasks as f64),
                "ratio",
            ),
            ("snapshot.prepare_ms".into(), ms(self.prepare_ns), "ms"),
            (
                "snapshot.share_ratio".into(),
                1.0 - ratio(self.representatives as f64, self.states as f64),
                "ratio",
            ),
            (
                "snapshot.representatives".into(),
                self.representatives as f64,
                "count",
            ),
            ("pfs.recover_ms".into(), ms(self.recover_ns), "ms"),
            (
                "pfs.recover_calls".into(),
                self.recover_us.len() as f64,
                "count",
            ),
            (
                "pfs.recover_p50_us".into(),
                quantile(&self.recover_us, 0.5),
                "us",
            ),
            ("check.stack_ms".into(), ms(self.check_ns), "ms"),
        ];
        for (name, &ns) in CHECK_STAGES.iter().zip(&self.stage_ns) {
            m.push((format!("{name}_ms"), ms(ns), "ms"));
        }
        m.extend([
            (
                "check.unattributed_ms".into(),
                ms(self.unattributed_ns),
                "ms",
            ),
            (
                "check.span_overflow_ms".into(),
                ms(self.span_overflow_ns),
                "ms",
            ),
            (
                "check.legal_replays".into(),
                self.legal_replays as f64,
                "count",
            ),
            (
                "check.pfs_cache_hit_ratio".into(),
                ratio(self.pfs_hits as f64, self.pfs_lookups as f64),
                "ratio",
            ),
            (
                "check.h5_cache_hit_ratio".into(),
                ratio(self.h5_hits as f64, self.h5_lookups as f64),
                "ratio",
            ),
            ("classify.ms".into(), ms(self.classify_ns), "ms"),
            ("classify.calls".into(), self.classify_calls as f64, "count"),
            (
                "classify.alloc_mb".into(),
                self.classify_alloc_bytes as f64 / MIB,
                "MiB",
            ),
            (
                "pool.utilization".into(),
                ratio(self.pool_busy_ns as f64, self.pool_capacity_ns as f64),
                "ratio",
            ),
            ("pool.steals".into(), self.pool_steals as f64, "count"),
            ("fuzz.record_cell_ms".into(), ms(self.record_cell_ns), "ms"),
            (
                "alloc.total_mb".into(),
                self.alloc_bytes as f64 / MIB,
                "MiB",
            ),
            (
                "trace.dropped_spans".into(),
                self.dropped_spans as f64,
                "count",
            ),
        ]);
        m
    }
}
