//! Benches for the bug-provenance engine (`paracrash::explain`).
//!
//! The engine only runs on buggy cells, so its cost is dominated by
//! delta-debugging: every ddmin probe is a crash-state materialization
//! plus a recover-and-mount check. Three questions matter:
//!
//! * **disabled cost** — a full check with `explain = false` (the
//!   production default). The `explain-overhead` verify gate asserts
//!   this stays within 3% of the pre-explain checker; here it is the
//!   baseline sample;
//! * **prefix-shared shrink** — explain on, probes materialized in
//!   batches through the snapshot engine's prefix-sharing replay, so
//!   probes that share an op prefix share COW nodes;
//! * **per-probe shrink** — the whole check under
//!   [`Engine::Reference`]: every probe replays from the baseline on
//!   its own, and this row also pays the reference engine's
//!   crash-state materialization (deep clone, full-prefix replay and
//!   recovery per state). The gap between the last two is therefore
//!   an upper bound on the prefix-sharing win on shrink workloads.
//!
//! The cell is ARVR on BeeGFS — two REPRODUCED bugs, so every sample
//! includes two full shrink runs.

use paracrash::{check_stack, CheckConfig, Engine};
use pc_rt::bench::{black_box, Bench};
use workloads::{FsKind, Params, Program};

/// Register the provenance-engine benches.
pub fn register(b: &mut Bench) {
    let params = Params::quick();
    let stack = Program::Arvr.run(FsKind::BeeGfs, &params);
    let factory = FsKind::BeeGfs.factory(&params);

    let run = |cfg: &CheckConfig| {
        let outcome = check_stack(&stack, &factory, cfg);
        black_box((outcome.bugs.len(), outcome.explanations.len()))
    };

    let off = CheckConfig::paper_default();
    assert!(!off.explain, "explain must default off");
    b.bench("explain/check/off", || run(&off));

    let prefix = CheckConfig {
        explain: true,
        ..CheckConfig::paper_default()
    };
    b.bench("explain/shrink/prefix-shared", || run(&prefix));

    let per_probe = CheckConfig {
        engine: Engine::Reference,
        ..prefix.clone()
    };
    b.bench("explain/shrink/per-probe", || run(&per_probe));
}
