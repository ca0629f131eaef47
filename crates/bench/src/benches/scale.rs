//! The extreme-scale suite behind the committed `BENCH_scale.json`:
//! per-state engine throughput (states/sec) of the subtree-batched
//! verdict engine against the pre-refactor oracle at 16 servers, plus
//! Figure 11 extension points at 64 / 128 / 256 servers.
//!
//! The headline pair isolates exactly what the refactor changed — how
//! a crash state becomes a recovered, mountable view:
//!
//! * `engine-batched` — the default engine: one shared prefix tree of
//!   O(1) COW forks materializes every state, and recovery runs once
//!   per *subtree representative* (states with identical storage
//!   sequences share their recovered view, `SnapshotPlan::rep`).
//! * `engine-oracle` — the pre-refactor composition that
//!   `Engine::Reference` runs: every state deep-clones the baseline,
//!   replays its full persisted prefix, and runs its own recovery.
//!
//! Both loops fold every state's view digest, so neither can skip
//! verdict work. The 64/128/256-server points run the full checker
//! (`check_stack`) end to end and report per-check cost.
//!
//! Each sample carries derived metrics next to its timings
//! ([`Bench::annotate`]):
//!
//! * `states_per_sec`  — crash states through the engine / median sec;
//! * `states_checked`  — how many states one iteration processes;
//! * `per_check_ns`    — median wall time / state.
//!
//! The throughput pair drives the ≥2× regression gate and the
//! 64→256-server points drive the sub-linear per-check growth gate —
//! both enforced by `scale-check` against the committed JSON
//! (`scripts/verify.sh` gate 11, methodology in `EXPERIMENTS.md`).

use paracrash::{crash_states, prepare_states, ExploreMode, PersistAnalysis};
use pc_rt::bench::Bench;
use pfs::{recover_and_mount, PfsView};
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

use crate::run_with_mode;

/// Server-count parameterization of the Figure 11 workload, stripe
/// shrinking with the server count as in the paper.
fn scale_params(servers: u32) -> Params {
    let base = Params::quick();
    let stripe = (base.stripe * 4 / u64::from(servers)).max(256);
    base.with_servers(servers / 2, servers / 2)
        .with_stripe(stripe)
}

/// Attach the derived throughput metrics to the just-benched sample,
/// guarding against a name filter having skipped it (annotate must
/// never attach to an earlier suite's sample).
fn annotate_throughput(b: &mut Bench, before: usize, states: usize) {
    if b.samples().len() == before {
        return;
    }
    let median_ns = b.samples().last().expect("just pushed").median_ns;
    b.annotate("states_checked", states as f64);
    b.annotate("states_per_sec", states as f64 / (median_ns / 1e9));
    b.annotate("per_check_ns", median_ns / states.max(1) as f64);
}

/// Register the scale suite.
pub fn register(b: &mut Bench) {
    // Headline pair: ARVR on 16-server BeeGFS, exhaustive k = 1
    // enumeration — the replay- and recovery-bound shape where the
    // engine *is* the cost.
    let params = scale_params(16);
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let graph = CausalityGraph::build(&stack.rec);
    let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
    let states = crash_states(&stack.rec, &graph, &pa, 1, None);
    assert!(!states.is_empty());

    let before = b.samples().len();
    b.bench("scale/engine-batched/16-servers", || {
        let plan = prepare_states(&stack.rec, stack.pfs.baseline(), &states);
        let mut views: Vec<Option<PfsView>> = (0..states.len()).map(|_| None).collect();
        let mut digest = 0u64;
        for (i, &rep) in plan.rep.iter().enumerate() {
            debug_assert!(rep <= i);
            if views[rep].is_none() {
                let mut st = plan.prepared[rep].fork();
                let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                views[rep] = Some(view);
            }
            digest ^= views[rep].as_ref().expect("recovered above").digest();
        }
        digest
    });
    annotate_throughput(b, before, states.len());

    let before = b.samples().len();
    b.bench("scale/engine-oracle/16-servers", || {
        let mut digest = 0u64;
        for state in &states {
            let mut st = stack.pfs.baseline().deep_clone();
            st.apply_events(&stack.rec, state.persisted.iter());
            let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
            digest ^= view.digest();
        }
        digest
    });
    annotate_throughput(b, before, states.len());

    // Figure 11 extension: full end-to-end checks as the cluster grows
    // past the paper's largest configuration.
    for &servers in &[64u32, 128, 256] {
        let cell_params = scale_params(servers);
        let before = b.samples().len();
        b.bench(&format!("scale/fig11/{servers}-servers"), || {
            run_with_mode(
                Program::H5Create,
                FsKind::BeeGfs,
                &cell_params,
                ExploreMode::Optimized,
            )
        });
        if b.samples().len() > before {
            let checked = run_with_mode(
                Program::H5Create,
                FsKind::BeeGfs,
                &cell_params,
                ExploreMode::Optimized,
            )
            .stats
            .states_checked;
            annotate_throughput(b, before, checked);
        }
    }
}
