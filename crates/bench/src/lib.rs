#![warn(missing_docs)]

//! Shared harness machinery for the figure/table regeneration binaries
//! and the wall-clock benches.
//!
//! Every evaluation artifact of the paper reduces to running a set of
//! `(program, file system, placement, parameters)` cells through
//! `paracrash::check_stack` and aggregating the outcomes:
//!
//! * Table 3 — the union of unique bugs over the full matrix;
//! * Figure 8 — inconsistent-state counts per cell;
//! * Figure 10 — exploration time per cell under the three modes;
//! * Figure 11 — exploration time as the server count grows.
//!
//! The wall-clock benches (formerly criterion bench targets) live in
//! [`benches`] and run on `pc-rt`'s harness through the `bench` binary:
//! `cargo run --release -p pc-bench --bin bench -- [filter] [--json PATH]`.

use h5sim::json::Json;
use paracrash::{
    check_stack, CheckConfig, CheckOutcome, Engine, ExploreMode, Inconsistency, LayerVerdict,
};
use pc_rt::bench::Sample;
use workloads::{FsKind, Params, Program};

pub mod campaign;
pub mod fuzz_driver;
pub mod progress;

pub use pc_rt::bench::fmt_ns;

/// The wall-clock benchmark suites (ported from the criterion benches).
pub mod benches {
    pub mod ablation;
    pub mod explain;
    pub mod explore;
    pub mod faults;
    pub mod fuzz;
    pub mod profiling;
    pub mod scalability;
    pub mod scale;
    pub mod substrate;
    pub mod telemetry;
}

/// One evaluated cell of the matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Test program.
    pub program: Program,
    /// File system.
    pub fs: FsKind,
    /// Placement-variant label ("default", "split-dirs", …).
    pub placement: &'static str,
    /// Check result.
    pub outcome: CheckOutcome,
}

impl MatrixCell {
    /// The number of unique inconsistencies (Figure 8 bar height).
    pub fn unique_bugs(&self) -> usize {
        self.outcome.bugs.len()
    }
}

/// Run one `(program, fs)` cell under one placement.
pub fn run_cell(
    program: Program,
    fs: FsKind,
    placement_name: &'static str,
    params: &Params,
    cfg: &CheckConfig,
) -> MatrixCell {
    // One causal trace id per cell: every span this check opens — trace
    // generation, checker stages, simnet RPC deliveries on pool worker
    // threads — tags this id, so Chrome-trace export renders the cell
    // as one cross-layer flow.
    pc_rt::obs::set_trace_id(pc_rt::obs::next_trace_id());
    let started = std::time::Instant::now();
    let trace_span = pc_rt::obs::span_cat("trace.generate", "trace");
    let stack = program.run(fs, params);
    drop(trace_span);
    let factory = fs.factory(params);
    let outcome = check_stack(&stack, &factory, cfg);
    if pc_rt::obs::stream::enabled() {
        pc_rt::obs::stream::emit(
            pc_rt::obs::stream::EventKind::Cell,
            &format!("{}@{}/{placement_name}", program.name(), fs.name()),
            started.elapsed().as_nanos() as u64,
            &format!(
                "bugs={} states={}",
                outcome.bugs.len(),
                outcome.stats.states_checked
            ),
        );
        pc_rt::obs::stream::flush();
    }
    pc_rt::obs::set_trace_id(0);
    MatrixCell {
        program,
        fs,
        placement: placement_name,
        outcome,
    }
}

/// Sum one replay cache's traffic into an accumulator (placement /
/// dims-sweep merging).
fn merge_cache(acc: &mut paracrash::explore::CacheStats, cell: &paracrash::explore::CacheStats) {
    acc.hits += cell.hits;
    acc.misses += cell.misses;
    acc.evictions += cell.evictions;
}

/// Merge explain bundles into an accumulator, one per `(signature,
/// layer)`, keeping the first variant's bundle (mirrors the bug-witness
/// policy: the first state to expose a cause is its witness).
fn merge_explanations(
    acc: &mut Vec<paracrash::BugExplanation>,
    from: Vec<paracrash::BugExplanation>,
) {
    for expl in from {
        if !acc
            .iter()
            .any(|e| e.signature == expl.signature && e.layer == expl.layer)
        {
            acc.push(expl);
        }
    }
}

/// Run a program on a file system across its placement variants and
/// merge the outcomes (union of bugs, summed state counts — the paper
/// tests "different distribution patterns" and reports the union).
pub fn run_program(program: Program, fs: FsKind, params: &Params, cfg: &CheckConfig) -> MatrixCell {
    let mut merged: Option<MatrixCell> = None;
    for (name, placement) in program.placements() {
        let cell_params = params.clone().with_placement(placement);
        let cell = run_cell(program, fs, name, &cell_params, cfg);
        merged = Some(match merged {
            None => cell,
            Some(mut acc) => {
                acc.outcome.raw_inconsistent_states += cell.outcome.raw_inconsistent_states;
                acc.outcome.h5_bad_pfs_ok_states += cell.outcome.h5_bad_pfs_ok_states;
                acc.outcome.stats.states_total += cell.outcome.stats.states_total;
                acc.outcome.stats.states_checked += cell.outcome.stats.states_checked;
                acc.outcome.stats.states_pruned += cell.outcome.stats.states_pruned;
                acc.outcome.stats.states_diagnostic += cell.outcome.stats.states_diagnostic;
                acc.outcome.diagnostics.extend(cell.outcome.diagnostics);
                acc.outcome.stats.sim_seconds += cell.outcome.stats.sim_seconds;
                acc.outcome.stats.wall_seconds += cell.outcome.stats.wall_seconds;
                acc.outcome.stats.server_rebuilds += cell.outcome.stats.server_rebuilds;
                acc.outcome.stats.legal_replays += cell.outcome.stats.legal_replays;
                merge_cache(
                    &mut acc.outcome.stats.pfs_cache,
                    &cell.outcome.stats.pfs_cache,
                );
                merge_cache(
                    &mut acc.outcome.stats.h5_cache,
                    &cell.outcome.stats.h5_cache,
                );
                merge_explanations(&mut acc.outcome.explanations, cell.outcome.explanations);
                for bug in cell.outcome.bugs {
                    if let Some(existing) = acc
                        .outcome
                        .bugs
                        .iter_mut()
                        .find(|b| b.signature == bug.signature && b.layer == bug.layer)
                    {
                        existing.occurrences += bug.occurrences;
                    } else {
                        acc.outcome.bugs.push(bug);
                    }
                }
                acc
            }
        });
    }
    merged.expect("every program has at least one placement")
}

/// Dataset-dimension variants for I/O-library programs: §6.2 "we test
/// them with a variety of dataset dimensions (from 200×200 to
/// 1000×1000)" — whether group structures and new-object headers land
/// on the *same* storage server (journal-ordered, safe) or different
/// ones (reorderable) depends on the data size between them, so a
/// single dimension can mask cross-server hazards.
pub fn dims_variants(program: Program, params: &Params) -> Vec<Params> {
    if program.uses_iolib() {
        let d = params.dims;
        vec![
            params.clone(),
            params.clone().with_dims(d + d / 4),
            params.clone().with_dims(d + d / 2),
        ]
    } else {
        vec![params.clone()]
    }
}

/// [`run_program`] unioned over the paper's dataset-dimension sweep.
pub fn run_program_swept(
    program: Program,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
) -> MatrixCell {
    let mut merged: Option<MatrixCell> = None;
    for v in dims_variants(program, params) {
        let cell = run_program(program, fs, &v, cfg);
        merged = Some(match merged {
            None => cell,
            Some(mut acc) => {
                acc.outcome.raw_inconsistent_states += cell.outcome.raw_inconsistent_states;
                acc.outcome.h5_bad_pfs_ok_states += cell.outcome.h5_bad_pfs_ok_states;
                acc.outcome.stats.states_diagnostic += cell.outcome.stats.states_diagnostic;
                acc.outcome.diagnostics.extend(cell.outcome.diagnostics);
                merge_explanations(&mut acc.outcome.explanations, cell.outcome.explanations);
                for bug in cell.outcome.bugs {
                    if let Some(existing) = acc
                        .outcome
                        .bugs
                        .iter_mut()
                        .find(|b| b.signature == bug.signature && b.layer == bug.layer)
                    {
                        existing.occurrences += bug.occurrences;
                    } else {
                        acc.outcome.bugs.push(bug);
                    }
                }
                acc
            }
        });
    }
    merged.expect("at least one dims variant")
}

/// Run the full matrix.
pub fn run_matrix(
    programs: &[Program],
    file_systems: &[FsKind],
    params: &Params,
    cfg: &CheckConfig,
) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for &program in programs {
        for &fs in file_systems {
            // POSIX programs run on every FS including the ext4 control;
            // I/O-library programs only make sense on the PFSs + ext4.
            cells.push(run_program(program, fs, params, cfg));
        }
    }
    cells
}

/// Scale selector for the harness binaries: `--paper` runs the full
/// Table 2 configuration, the default runs the scaled-down configuration
/// with identical cross-server structure.
pub fn params_from_args() -> Params {
    if std::env::args().any(|a| a == "--paper") {
        Params::paper()
    } else {
        Params::quick()
    }
}

/// Default checker configuration for the harnesses: the paper's
/// defaults with the engine named by `PC_ENGINE` (`fast`, the default,
/// or `reference`). This is the only place the binaries read
/// `PC_ENGINE`; an unknown value exits 2 with a one-line error.
pub fn default_config() -> CheckConfig {
    let engine = match std::env::var("PC_ENGINE") {
        Err(_) => Engine::Fast,
        Ok(v) => Engine::parse(&v).unwrap_or_else(|| {
            pc_rt::pc_error!("bad PC_ENGINE {v:?}: expected fast or reference");
            std::process::exit(2);
        }),
    };
    CheckConfig {
        engine,
        ..CheckConfig::paper_default()
    }
}

/// Render one inconsistency like a Table 3 row body.
pub fn render_bug(bug: &Inconsistency) -> String {
    let layer = match bug.layer {
        LayerVerdict::IoLibBug => "I/O library",
        LayerVerdict::PfsBug => "PFS",
    };
    format!(
        "{} | violates {} | {} (x{})",
        layer,
        bug.violated_model.as_str(),
        bug.signature,
        bug.occurrences
    )
}

/// Bench-friendly single-cell runner with explicit mode.
pub fn run_with_mode(
    program: Program,
    fs: FsKind,
    params: &Params,
    mode: ExploreMode,
) -> CheckOutcome {
    let cfg = CheckConfig {
        mode,
        ..default_config()
    };
    run_program(program, fs, params, &cfg).outcome
}

/// Serialize bench results as JSON (via `h5sim`'s vendored writer —
/// the same one `h5inspect` uses, keeping the workspace registry-free).
pub fn bench_samples_json(samples: &[Sample]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("iters".into(), Json::Int(u64::from(s.iters))),
                    ("min_ns".into(), Json::Int(s.min_ns.round() as u64)),
                    ("mean_ns".into(), Json::Int(s.mean_ns.round() as u64)),
                    ("median_ns".into(), Json::Int(s.median_ns.round() as u64)),
                    ("p95_ns".into(), Json::Int(s.p95_ns.round() as u64)),
                ];
                for (k, v) in &s.extra {
                    fields.push((k.clone(), Json::Int(v.round() as u64)));
                }
                Json::Obj(fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_variants_sweep_only_iolib_programs() {
        let params = Params::quick();
        assert_eq!(dims_variants(Program::Arvr, &params).len(), 1);
        let swept = dims_variants(Program::H5Create, &params);
        assert_eq!(swept.len(), 3);
        assert!(swept[1].dims > swept[0].dims && swept[2].dims > swept[1].dims);
    }

    #[test]
    fn run_program_merges_placement_variants() {
        // WAL has two placement variants; the merged cell must account
        // for both explorations.
        let params = Params::quick();
        let cfg = default_config();
        let merged = run_program(Program::Wal, FsKind::GlusterFs, &params, &cfg);
        let single = run_cell(Program::Wal, FsKind::GlusterFs, "default", &params, &cfg);
        assert!(merged.outcome.stats.states_total > single.outcome.stats.states_total);
        assert!(merged.unique_bugs() >= single.outcome.bugs.len());
    }
}
