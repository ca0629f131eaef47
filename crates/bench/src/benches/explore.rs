//! Benches for Figure 10: real wall-clock exploration time of the
//! three crash-state exploration strategies.
//!
//! The figure harness (`--bin fig10`) reports the calibrated simulated
//! seconds; these benches measure what this reproduction actually costs,
//! so regressions in the framework itself are visible.

use paracrash::{crash_states, prepare_states, ExploreMode, PersistAnalysis};
use pc_rt::bench::Bench;
use pfs::recover_and_mount;
use tracer::CausalityGraph;
use workloads::{FsKind, Params, Program};

use crate::run_with_mode;

/// Register the Figure 10 exploration-mode benches.
pub fn register(b: &mut Bench) {
    let params = Params::quick();
    for (program, fs) in [
        (Program::Arvr, FsKind::BeeGfs),
        (Program::Cr, FsKind::Gpfs),
        (Program::H5Delete, FsKind::BeeGfs),
    ] {
        for mode in [
            ExploreMode::BruteForce,
            ExploreMode::Pruning,
            ExploreMode::Optimized,
        ] {
            b.bench(
                &format!(
                    "fig10-explore/{}-{}/{}",
                    program.name(),
                    fs.name(),
                    mode.as_str()
                ),
                || {
                    let outcome = run_with_mode(program, fs, &params, mode);
                    assert!(outcome.stats.states_checked > 0);
                    outcome
                },
            );
        }
    }
    for fs in FsKind::all() {
        b.bench(&format!("trace-generation/ARVR/{}", fs.name()), || {
            Program::Arvr.run(fs, &params)
        });
    }
    // Snapshot-engine comparison over an exhaustive (k = 1) crash-state
    // enumeration — exactly the two code paths `check_stack` switches
    // between on `CheckConfig::engine` (tests/snapshot_equivalence.rs
    // asserts they produce bit-identical reports). Two levels per cell:
    //
    // * `materialize`: produce every crash state's pre-recovery server
    //   snapshot. This is the work the engine replaced — a shared prefix
    //   tree of O(1) COW forks versus a deep clone of the baseline plus
    //   a full replay per state — so the gap here is the gap the
    //   refactor created.
    // * `verdict`: materialize, then recover and mount every state (the
    //   checker's full per-state fan-out). Recovery and view
    //   construction are engine-independent and bound the end-to-end
    //   ratio from above.
    //
    // WAL with a deep page queue is the replay-bound shape the engine
    // targets: every extra page multiplies both the state count and
    // each state's replay prefix, so the naive O(states × trace) replay
    // grows quadratically while the shared prefix tree holds one path.
    for (program, fs, cell_params) in [
        (Program::Arvr, FsKind::BeeGfs, params.clone()),
        (
            Program::Wal,
            FsKind::BeeGfs,
            Params {
                wal_pages: 64,
                ..Params::quick()
            },
        ),
    ] {
        let stack = program.run(fs, &cell_params);
        let graph = CausalityGraph::build(&stack.rec);
        let pa = PersistAnalysis::build(&stack.rec, &graph, |s| stack.journal_of(s));
        let states = crash_states(&stack.rec, &graph, &pa, 1, None);
        assert!(!states.is_empty());
        let cell = format!("{}-{}", program.name(), fs.name());
        b.bench(&format!("snapshot-engine/{cell}/materialize/cow"), || {
            prepare_states(&stack.rec, stack.pfs.baseline(), &states).prepared
        });
        b.bench(&format!("snapshot-engine/{cell}/materialize/naive"), || {
            states
                .iter()
                .map(|state| {
                    let mut st = stack.pfs.baseline().deep_clone();
                    st.apply_events(&stack.rec, state.persisted.iter());
                    st
                })
                .collect::<Vec<_>>()
        });
        b.bench(&format!("snapshot-engine/{cell}/verdict/cow"), || {
            let plan = prepare_states(&stack.rec, stack.pfs.baseline(), &states);
            let mut digest = 0u64;
            for prepared in &plan.prepared {
                let mut st = prepared.fork();
                let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                digest ^= view.digest();
            }
            digest
        });
        b.bench(&format!("snapshot-engine/{cell}/verdict/naive"), || {
            let mut digest = 0u64;
            for state in &states {
                let mut st = stack.pfs.baseline().deep_clone();
                st.apply_events(&stack.rec, state.persisted.iter());
                let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                digest ^= view.digest();
            }
            digest
        });
    }
}
