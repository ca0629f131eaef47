//! The fast engine and the reference engine (`CheckConfig::engine`)
//! must be observationally identical: same bug reports, same state
//! counts, same simulated cost model, same representative-state
//! digests. The engines differ only in *how* crash states are
//! materialized, recovered and digested — the fast engine forks shared
//! prefixes off a COW prefix tree, recovers once per subtree
//! representative and digests interned trees; the reference engine
//! deep-clones and replays every state from scratch, recovers every
//! state on its own and digests by string walk — never in *what* they
//! materialize.
//!
//! The contract is checked on every PFS model, every journal mode, and
//! under chaos faults. `scripts/verify.sh` runs this suite once with
//! `PC_THREADS=1` and once parallel, so the guarantee is also checked
//! against the thread pool.

use paracrash::{CheckConfig, CheckOutcome, Engine, ExploreMode};
use paracrash_suite::check_with;
use paracrash_suite::simnet::FaultConfig;
use pc_rt::prop_assert_eq;
use pc_rt::proptest::{gen_vec, run, Config};
use pc_rt::rng::Rng;
use simfs::{FsOp, FsState, JournalMode};
use workloads::{FsKind, Params, Program};

/// Everything an engine is allowed to influence, rendered for comparison.
/// `wall_seconds` is deliberately excluded — it is the one field that
/// *should* differ between the engines.
fn observable(outcome: &CheckOutcome) -> String {
    let mut bugs: Vec<String> = outcome.bugs.iter().map(|b| format!("{b:?}")).collect();
    bugs.sort();
    format!(
        "pfs={} bugs={:?} raw={} h5_bad_pfs_ok={} total={} checked={} pruned={} \
         rebuilds={} sim={} replays={} reps={:?}",
        outcome.pfs_name,
        bugs,
        outcome.raw_inconsistent_states,
        outcome.h5_bad_pfs_ok_states,
        outcome.stats.states_total,
        outcome.stats.states_checked,
        outcome.stats.states_pruned,
        outcome.stats.server_rebuilds,
        outcome.stats.sim_seconds,
        outcome.stats.legal_replays,
        outcome.rep_digests,
    )
}

/// One cell under both engines: the canonical report (the full
/// user-facing output) must be byte-identical, and so must every
/// engine-reachable statistic.
fn assert_engines_agree(program: Program, fs: FsKind, params: &Params, cfg: &CheckConfig) {
    let fast = check_with(program, fs, params, cfg);
    let reference = check_with(
        program,
        fs,
        params,
        &CheckConfig {
            engine: Engine::Reference,
            ..cfg.clone()
        },
    );
    assert_eq!(
        fast.canonical_report(),
        reference.canonical_report(),
        "engines diverged for {} on {} ({}, journal {:?})",
        program.name(),
        fs.name(),
        cfg.mode.as_str(),
        params.journal,
    );
    assert_eq!(observable(&fast), observable(&reference));
    assert!(fast.stats.states_total > 0);
}

/// Representative workloads, one per PFS model plus the ext4 control,
/// in brute-force and optimized exploration.
#[test]
fn engines_report_identical_outcomes() {
    let cells: [(Program, FsKind, ExploreMode); 7] = [
        (Program::Arvr, FsKind::BeeGfs, ExploreMode::BruteForce),
        (Program::Arvr, FsKind::BeeGfs, ExploreMode::Optimized),
        (Program::Arvr, FsKind::OrangeFs, ExploreMode::Optimized),
        (Program::Wal, FsKind::GlusterFs, ExploreMode::Optimized),
        (Program::Cr, FsKind::Gpfs, ExploreMode::Optimized),
        (Program::CdfCreate, FsKind::Lustre, ExploreMode::Optimized),
        (Program::Arvr, FsKind::Ext4, ExploreMode::BruteForce),
    ];
    let params = Params::quick();
    for (program, fs, mode) in cells {
        // Representative-state digests are engine-derived (prefix-tree
        // terminals vs per-distinct-sequence reference materialization
        // and string-walk digests), so they are part of the equivalence
        // contract: collect them here and let `observable` compare the
        // exact digest sets.
        let cfg = CheckConfig {
            mode,
            collect_rep_digests: true,
            ..CheckConfig::paper_default()
        };
        assert_engines_agree(program, fs, &params, &cfg);
    }
}

/// The fast engine shares one recovery across each snapshot-plan
/// subtree; the reference engine recovers every state individually.
/// Identical reports across all five PFS models × all journal modes,
/// and under a chaos fault plane (torn writes force the fast engine
/// onto its per-state fallback for victim states while still batching
/// the rest).
#[test]
fn batched_verdicts_match_per_state_oracle() {
    let models = [
        FsKind::BeeGfs,
        FsKind::OrangeFs,
        FsKind::Lustre,
        FsKind::GlusterFs,
        FsKind::Gpfs,
    ];
    let journals = [
        JournalMode::Data,
        JournalMode::Ordered,
        JournalMode::Writeback,
        JournalMode::None,
    ];
    let cfg = CheckConfig::paper_default();
    for fs in models {
        for journal in journals {
            let params = Params::quick().with_journal(journal);
            assert_engines_agree(Program::Arvr, fs, &params, &cfg);
        }
    }
    // Chaos faults: delivery noise plus torn writes, driving both the
    // shared-recovery path (victim-free states) and the per-state
    // fallback (torn states) in one run.
    let faults = FaultConfig::chaos(0x5CA1EB47);
    let params = Params::quick().with_faults(faults.clone());
    let chaos_cfg = CheckConfig {
        faults,
        ..CheckConfig::paper_default()
    };
    for fs in models {
        assert_engines_agree(Program::Arvr, fs, &params, &chaos_cfg);
    }
}

/// Random op sequence over a small path universe; lenient application
/// skips ops whose prerequisites are missing, mirroring crash replay.
fn arb_ops(rng: &mut Rng, size: usize) -> (Vec<FsOp>, Vec<FsOp>) {
    let gen_seq = |r: &mut Rng| {
        gen_vec(r, size.min(12), |r| {
            let f = format!("/f{}", r.next_u32() % 4);
            let g = format!("/d/f{}", r.next_u32() % 3);
            match r.next_u32() % 10 {
                0 => FsOp::Creat { path: f },
                1 => FsOp::Mkdir { path: "/d".into() },
                2 => FsOp::Creat { path: g },
                3 => FsOp::Pwrite {
                    path: f,
                    offset: u64::from(r.next_u32() % 8),
                    data: vec![r.next_u32() as u8; 1 + (r.next_u32() % 4) as usize],
                },
                4 => FsOp::Append {
                    path: f,
                    data: vec![r.next_u32() as u8],
                },
                5 => FsOp::Truncate {
                    path: f,
                    size: u64::from(r.next_u32() % 6),
                },
                6 => FsOp::Rename { src: f, dst: g },
                7 => FsOp::Link { src: f, dst: g },
                8 => FsOp::SetXattr {
                    path: f,
                    key: "user.k".into(),
                    value: vec![r.next_u32() as u8],
                },
                _ => FsOp::Unlink { path: f },
            }
        })
    };
    (gen_seq(rng), gen_seq(rng))
}

/// COW fork + mutate + hash must equal deep-clone + mutate + hash for
/// arbitrary `FsOp` sequences (digested by both the fast and the
/// reference digest), and the shared parent must be unaffected by the
/// fork's mutations.
#[test]
fn cow_fork_equals_naive_clone_under_random_ops() {
    run(
        "cow_fork_equals_naive_clone_under_random_ops",
        &Config::with_cases(128),
        arb_ops,
        |(base_ops, suffix)| {
            let mut base = FsState::new();
            base.apply_lenient(base_ops.iter());
            let base_digest = base.digest();
            let mut fork = base.fork();
            let mut deep = base.deep_clone();
            prop_assert_eq!(&fork, &deep);
            let fork_failures = fork.apply_lenient(suffix.iter()).len();
            let deep_failures = deep.apply_lenient(suffix.iter()).len();
            prop_assert_eq!(fork_failures, deep_failures);
            prop_assert_eq!(&fork, &deep);
            prop_assert_eq!(fork.digest(), deep.digest());
            prop_assert_eq!(fork.digest(), deep.digest_reference());
            prop_assert_eq!(base.digest(), base_digest);
            Ok(())
        },
    );
}
