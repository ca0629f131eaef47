//! The cross-layer consistency checker (Figure 6).
//!
//! For every crash state: materialize it on snapshots of the servers,
//! run the PFS recovery tool and remount, then check **top-down**:
//!
//! 1. If the program uses the I/O library, check the recovered HDF5 /
//!    NetCDF state against the legal golden states of the I/O-library
//!    layer (preserved sets of H5 calls, replayed with `h5replay` on a
//!    fresh stack; `h5clear` is given a chance to repair first).
//! 2. If the I/O-library state is inconsistent, check the PFS layer the
//!    same way (preserved sets of PFS client calls). A valid PFS state
//!    under an invalid I/O-library state attributes the bug to the I/O
//!    library; an invalid PFS state attributes it to the PFS.
//! 3. Classify (Table 1), aggregate duplicates (§5.2), optionally learn
//!    the pattern for pruning (§5.3).

use crate::classify::{classify, BugSignature};
use crate::config::{CheckConfig, Engine};
use crate::emulate::crash_states;
use crate::explore::{
    is_data_chunk, server_fingerprints, tsp_order, CostModel, ExploreStats, Pruner, ReplayCache,
};
use crate::model::Model;
use crate::persist::PersistAnalysis;
use crate::report::op_detail;
use crate::snapshot::{prepare_states, SnapshotPlan};
use crate::stack::{replay_h5, replay_pfs, Stack, StackFactory};
use h5sim::{check as h5check, check_lenient, h5clear, H5Logical};
use pfs::{recover_and_mount, PfsCall, PfsView};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tracer::{BitSet, CausalityGraph, EventId, Layer, Process, Recorder};

/// Which layer a bug is attributed to (Figure 6's final verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerVerdict {
    /// The PFS state was legal but the I/O-library state was not.
    IoLibBug,
    /// The PFS state itself violated its crash-consistency model.
    PfsBug,
}

/// One aggregated crash-consistency bug.
#[derive(Debug, Clone)]
pub struct Inconsistency {
    /// Root-cause signature (reordering pair / atomic group).
    pub signature: BugSignature,
    /// Responsible layer.
    pub layer: LayerVerdict,
    /// The weakest crash-consistency model the state violates at the
    /// inconsistent layer (baseline violations are the severe ones).
    pub violated_model: Model,
    /// Concrete operations of one witness state (Table 3's "Details").
    pub witness: Vec<String>,
    /// How many distinct crash states expose this cause.
    pub occurrences: usize,
}

/// The result of checking one test program on one stack.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// PFS under test.
    pub pfs_name: String,
    /// Aggregated unique bugs.
    pub bugs: Vec<Inconsistency>,
    /// Inconsistent crash states before aggregation (Figure 8 bars).
    pub raw_inconsistent_states: usize,
    /// States where the I/O library was inconsistent while the PFS was
    /// consistent (Figure 8 line series).
    pub h5_bad_pfs_ok_states: usize,
    /// Exploration accounting (Figures 10 / 11).
    pub stats: ExploreStats,
    /// Crash states whose check itself failed (a panicking recovery
    /// tool, a poisoned replay): one human-readable line each. The run
    /// completes; these states are excluded from the verdict counts.
    pub diagnostics: Vec<String>,
    /// Provenance bundles, one per bug, in signature order — filled
    /// only when `cfg.explain` (or `PC_TRACE=summary`) is set.
    /// Presentation-plane output: never part of
    /// [`CheckOutcome::canonical_report`], so explain on/off runs stay
    /// byte-identical there.
    pub explanations: Vec<crate::explain::BugExplanation>,
    /// Digests of the distinct *representative* pre-recovery crash
    /// states (sorted, deduplicated) — the Pathfinder-style state
    /// identities the campaign corpus dedups on. Filled only when
    /// `cfg.collect_rep_digests` is set; engine-invariant (the fast and
    /// reference engines agree). Like `explanations`, never
    /// part of [`CheckOutcome::canonical_report`].
    pub rep_digests: Vec<u64>,
}

impl CheckOutcome {
    /// Bugs attributed to the I/O library.
    pub fn iolib_bugs(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.layer == LayerVerdict::IoLibBug)
            .count()
    }

    /// Bugs attributed to the PFS.
    pub fn pfs_bugs(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| b.layer == LayerVerdict::PfsBug)
            .count()
    }

    /// Deterministic rendering of everything the checker *decided* —
    /// bugs, state counts, diagnostics — excluding wall-clock timing
    /// and cache traffic. Two runs with the same trace and the same
    /// fault seed must produce byte-identical canonical reports, on any
    /// `PC_THREADS` setting: this is the string the chaos suite
    /// compares.
    pub fn canonical_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "pfs = {}", self.pfs_name);
        let _ = writeln!(
            out,
            "states total/checked/pruned/diagnostic = {}/{}/{}/{}",
            self.stats.states_total,
            self.stats.states_checked,
            self.stats.states_pruned,
            self.stats.states_diagnostic,
        );
        let _ = writeln!(
            out,
            "raw inconsistent = {} (h5-bad-pfs-ok {})",
            self.raw_inconsistent_states, self.h5_bad_pfs_ok_states,
        );
        let mut bugs: Vec<String> = self
            .bugs
            .iter()
            .map(|b| {
                format!(
                    "bug {} [{:?}] violates {} x{} witness={:?}",
                    b.signature,
                    b.layer,
                    b.violated_model.as_str(),
                    b.occurrences,
                    b.witness,
                )
            })
            .collect();
        bugs.sort();
        for b in bugs {
            let _ = writeln!(out, "{b}");
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "diagnostic: {d}");
        }
        out
    }
}

/// Walk caller links to the nearest *call* ancestor at `layer` (RPC
/// send/recv events are recorded at the same layers but belong to their
/// issuing call).
fn ancestor_at(rec: &Recorder, e: EventId, layer: Layer) -> Option<EventId> {
    let mut cur = Some(e);
    while let Some(id) = cur {
        let ev = rec.event(id);
        if ev.layer == layer && matches!(ev.payload, tracer::Payload::Call { .. }) {
            return Some(id);
        }
        cur = ev.parent;
    }
    None
}

/// Map each lowermost event in `cut` to its layer-level call, falling
/// back to the latest call that happens-before it.
fn layer_candidates(
    rec: &Recorder,
    graph: &CausalityGraph,
    layer: Layer,
    layer_ops: &[EventId],
    cut: &BitSet,
) -> Vec<EventId> {
    let mut out: BTreeSet<EventId> = BTreeSet::new();
    for e in cut.iter() {
        if !rec.event(e).layer.is_lowermost() {
            continue;
        }
        if let Some(a) = ancestor_at(rec, e, layer) {
            if layer_ops.contains(&a) {
                out.insert(a);
                continue;
            }
        }
        if let Some(&a) = layer_ops.iter().rfind(|&&op| graph.happens_before(op, e)) {
            out.insert(a);
        }
    }
    out.into_iter().collect()
}

/// PFS-layer ops committed by an `fsync` call inside the candidate set.
fn pfs_committed(
    rec: &Recorder,
    graph: &CausalityGraph,
    stack: &Stack,
    candidates: &[EventId],
) -> Vec<EventId> {
    let mut out = Vec::new();
    for &(ev, _, ref call) in stack.calls.entries() {
        if !candidates.contains(&ev) {
            continue;
        }
        for &(fev, _, ref fcall) in stack.calls.entries() {
            if let PfsCall::Fsync { path } = fcall {
                if candidates.contains(&fev)
                    && path == call.primary_path()
                    && graph.happens_before(ev, fev)
                {
                    out.push(ev);
                    break;
                }
            }
        }
    }
    let _ = rec;
    out
}

/// Shared legal golden states for one cut: `(PFS views, H5 logicals)`.
type LegalStates = (Arc<Vec<PfsView>>, Arc<Vec<H5Logical>>);

/// Run the full ParaCrash check for one traced program.
pub fn check_stack(stack: &Stack, factory: &StackFactory, cfg: &CheckConfig) -> CheckOutcome {
    let started = Instant::now();
    let check_span = pc_rt::obs::span_cat("check_stack", "check");
    let tl_mark = pc_rt::obs::mark();
    let rec = &stack.rec;
    let stage = pc_rt::obs::span_cat("check.analyze", "check");
    let graph = CausalityGraph::build(rec);
    let pa = PersistAnalysis::build(rec, &graph, |s| stack.journal_of(s));
    drop(stage);
    let topo = stack.pfs.topology().clone();
    let n_servers = topo.server_count();

    // Semantic victim pruning (§5.3) only in the pruning modes, only for
    // I/O-library programs (the object map comes from h5inspect).
    let semantic = cfg.mode.prunes() && stack.h5_path.is_some();
    let filter = |e: EventId| !(semantic && is_data_chunk(rec, e));
    let stage = pc_rt::obs::span_cat("check.enumerate", "check");
    let states = crash_states(rec, &graph, &pa, cfg.k, Some(&filter));
    drop(stage);
    pc_rt::obs::count("check.crash_states", states.len() as u64);

    // Checking order: minimal-damage states first, so classification
    // sees the single-fault witnesses before the compound ones and the
    // §5.2 aggregation can absorb the latter. (Reconstruction *cost* is
    // charged separately below, over the mode's own visiting order.)
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&i| {
        let s = &states[i];
        (s.victims.len(), std::cmp::Reverse(s.cut.count()))
    });

    // Baseline (pre-crash) I/O-library state, for the baseline model's
    // unmodified-dataset rule.
    let baseline_h5: Option<H5Logical> = stack.h5_path.as_ref().and_then(|p| {
        let view = stack.pfs.client_view(stack.pfs.baseline());
        view.read(p).and_then(|b| h5check(b).ok())
    });
    let modified_keys = modified_dataset_keys(stack);

    let pfs_ops = stack.calls.event_ids();
    let h5_ops = stack.h5.event_ids();

    let mut stats = ExploreStats {
        states_total: states.len(),
        ..Default::default()
    };
    let mut pruner = Pruner::new();
    // Legal-state sets are shared, not cloned, across states: the heavy
    // HDF5 cells hold multi-megabyte views and hundreds of crash states.
    let mut pfs_cache: ReplayCache<Arc<Vec<PfsView>>> = ReplayCache::with_cap(cfg.replay_cache_cap);
    let mut h5_cache: ReplayCache<Arc<Vec<H5Logical>>> =
        ReplayCache::with_cap(cfg.replay_cache_cap);
    let mut bugs: BTreeMap<(BugSignature, LayerVerdict), Inconsistency> = BTreeMap::new();
    // Index of each bug's first (witness) crash state, for the explain
    // pass; side table rather than an `Inconsistency` field so the
    // canonical report stays exactly what the checker decided.
    let mut witness_state: BTreeMap<(BugSignature, LayerVerdict), usize> = BTreeMap::new();
    let mut raw_inconsistent = 0usize;
    let mut h5_bad_pfs_ok = 0usize;
    let mut checked_indices: Vec<usize> = Vec::new();

    // Legal golden states per distinct candidate set, filled up front so
    // the verdict pass can run data-parallel (states are independent:
    // each materializes its own snapshot).
    let evaluate = |state: &crate::emulate::CrashState,
                    pfs_cache: &mut ReplayCache<Arc<Vec<PfsView>>>,
                    h5_cache: &mut ReplayCache<Arc<Vec<H5Logical>>>|
     -> LegalStates {
        let pfs_candidates = layer_candidates(rec, &graph, Layer::PfsClient, &pfs_ops, &state.cut);
        let committed = pfs_committed(rec, &graph, stack, &pfs_candidates);
        let legal_views = pfs_cache.get_or(pfs_candidates.clone(), || {
            Arc::new(legal_pfs_views(
                stack,
                factory,
                cfg.pfs_model,
                &graph,
                &pfs_candidates,
                &committed,
            ))
        });
        let legal_h5 = if stack.h5_path.is_some() {
            let h5_candidates = layer_candidates(rec, &graph, Layer::IoLib, &h5_ops, &state.cut);
            h5_cache.get_or(h5_candidates.clone(), || {
                Arc::new(legal_h5_logicals(
                    stack,
                    factory,
                    cfg.h5_model,
                    &graph,
                    &h5_candidates,
                ))
            })
        } else {
            Arc::new(Vec::new())
        };
        (legal_views, legal_h5)
    };

    // Crash-state materialization engine. The fast engine
    // pre-materializes every state as an O(1) fork off a shared prefix
    // tree of persisted-event sequences; the reference engine (no plan)
    // instead deep-clones the baseline and replays each state's full
    // prefix, reproducing the historical clone-everything engine.
    // Both apply the exact same events in the exact same order, so the
    // materialized states — and every verdict derived from them — are
    // bit-identical (asserted by `tests/snapshot_equivalence.rs`).
    let stage = pc_rt::obs::span_cat("check.materialize", "check");
    let plan: Option<SnapshotPlan> = match cfg.engine {
        Engine::Fast => Some(prepare_states(rec, stack.pfs.baseline(), &states)),
        Engine::Reference => None,
    };
    drop(stage);

    // Representative-state identities for the campaign corpus: one
    // digest per distinct storage-event sequence, of the materialized
    // (pre-recovery, pre-widening) snapshot. The prefix-tree engine
    // reads them straight off its terminals (`rep[i] == i`); the
    // reference engine materializes each distinct sequence once and
    // digests it with the string-walk reference digest — identical
    // values by the same equivalence argument as the snapshots
    // themselves.
    let rep_digests: Vec<u64> = if cfg.collect_rep_digests {
        let _stage = pc_rt::obs::span_cat("check.rep_digests", "check");
        let mut digests: Vec<u64> = match &plan {
            Some(plan) => plan
                .rep
                .iter()
                .enumerate()
                .filter(|&(i, &rep)| rep == i)
                .map(|(i, _)| plan.prepared[i].digest())
                .collect(),
            None => {
                let mut seen: std::collections::BTreeSet<Vec<tracer::EventId>> =
                    std::collections::BTreeSet::new();
                let mut digests = Vec::new();
                for state in &states {
                    let seq = crate::snapshot::storage_seq(rec, state);
                    if seen.insert(seq.clone()) {
                        let mut st = stack.pfs.baseline().deep_clone();
                        st.apply_events(rec, seq);
                        digests.push(st.digest_reference());
                    }
                }
                digests
            }
        };
        digests.sort_unstable();
        digests.dedup();
        pc_rt::obs::count("check.rep_digests", digests.len() as u64);
        digests
    } else {
        Vec::new()
    };

    // The per-state verdict, shared by the sequential and parallel paths.
    // Torn-write widening (when `cfg.faults.torn_writes`) draws from an
    // RNG seeded by (fault seed, state index) so the same crash state
    // tears the same way on every run and thread count.
    let torn = cfg.faults.torn_writes;
    let torn_rng = |i: usize| -> pc_rt::rng::Rng {
        pc_rt::rng::Rng::new(
            cfg.faults
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    };
    // Subtree-batched recovery: crash states whose storage-event
    // sequences land on the same prefix-tree terminal have *identical*
    // prepared snapshots, so recovery and mounting — the dominant
    // per-state cost — runs once per representative and the recovered
    // view is shared. A state stays on the per-state path when fault
    // widening can make its on-disk image unique (torn writes with live
    // victims), and under the reference engine (no plan). Recovery is
    // deterministic on the store state, so both paths produce
    // bit-identical views (asserted by `tests/snapshot_equivalence.rs`).
    let shared_views: Vec<OnceLock<PfsView>> = (0..states.len()).map(|_| OnceLock::new()).collect();
    let verdict_of = |i: usize,
                      legal_views: &[PfsView],
                      legal_h5: &[H5Logical]|
     -> (bool, Option<(LayerVerdict, Model)>) {
        let state = &states[i];
        let owned: PfsView;
        let view: &PfsView = match &plan {
            Some(plan) if !torn || state.victims.is_empty() => {
                let rep = plan.rep[i];
                if rep != i {
                    pc_rt::obs::count("check.views_shared", 1);
                }
                shared_views[rep].get_or_init(|| {
                    let mut st = plan.prepared[rep].fork();
                    let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                    view
                })
            }
            _ => {
                let mut st = match &plan {
                    Some(plan) => plan.prepared[i].fork(),
                    None => {
                        let mut st = stack.pfs.baseline().deep_clone();
                        st.apply_events(rec, state.persisted.iter());
                        st
                    }
                };
                if torn {
                    st.apply_torn_victims(rec, state.victims.iter().copied(), &mut torn_rng(i));
                }
                let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut st);
                owned = view;
                &owned
            }
        };
        let pfs_ok = legal_views.contains(view);
        let verdict = if let Some(path) = &stack.h5_path {
            h5_verdict(
                cfg,
                path,
                view,
                legal_h5,
                baseline_h5.as_ref(),
                &modified_keys,
            )
            .map(|violated| {
                if pfs_ok {
                    (LayerVerdict::IoLibBug, violated)
                } else {
                    (LayerVerdict::PfsBug, violated)
                }
            })
        } else if pfs_ok {
            None
        } else {
            Some((LayerVerdict::PfsBug, cfg.pfs_model))
        };
        (pfs_ok, verdict)
    };

    // Legal-state replays and per-state verdicts are *pipelined*: the
    // sequential producer (it owns the `&mut` replay caches) walks the
    // checking order, fills each state's legal-state slot, and
    // immediately spawns that state's verdict task on the work-stealing
    // scope — verdict workers run concurrently with the producer
    // instead of waiting behind a stage barrier. Results are joined by
    // state index, so the output is byte-identical to the old
    // two-stage fan-out on every `PC_THREADS` setting (1 = spawn runs
    // inline: the deterministic sequential reference).
    // Both the golden-state replays and the per-state verdicts run under
    // catch_unwind: a panicking model or recovery tool poisons only its
    // own crash state, which the prune pass below turns into a
    // diagnostic entry instead of aborting the run.
    let legal_of: Vec<OnceLock<Result<LegalStates, String>>> =
        (0..states.len()).map(|_| OnceLock::new()).collect();
    let stage_legal = pc_rt::obs::span_cat("check.legal_states", "check");
    let stage_verdicts = pc_rt::obs::span_cat("check.verdicts", "check");
    let computed: Vec<Result<(bool, Option<(LayerVerdict, Model)>), String>> =
        pc_rt::pool::scope(|scope| {
            let mut handles = Vec::with_capacity(order.len());
            for &idx in &order {
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    evaluate(&states[idx], &mut pfs_cache, &mut h5_cache)
                }))
                .map_err(|p| pc_rt::pool::panic_message(p.as_ref()));
                let _ = legal_of[idx].set(got);
                let legal_of = &legal_of;
                let verdict_of = &verdict_of;
                handles.push((
                    idx,
                    scope.spawn(move || {
                        match legal_of[idx].get().expect("producer fills before spawn") {
                            Ok((legal_views, legal_h5)) => verdict_of(idx, legal_views, legal_h5),
                            // Funnel replay failures through the same caught path.
                            Err(e) => panic!("legal-state replay failed: {e}"),
                        }
                    }),
                ));
            }
            let mut out: Vec<Option<Result<_, String>>> = (0..states.len()).map(|_| None).collect();
            for (idx, handle) in handles {
                out[idx] = Some(handle.join());
            }
            out.into_iter()
                .map(|r| r.expect("order is a permutation of all states"))
                .collect()
        });
    drop(stage_verdicts);
    drop(stage_legal);
    let stage = pc_rt::obs::span_cat("check.prune", "check");
    let mut diagnostics: Vec<String> = Vec::new();
    for &idx in &order {
        let state = &states[idx];
        if cfg.mode.prunes() && pruner_skips(&pruner, rec, &topo, &pa, state) {
            stats.states_pruned += 1;
            continue;
        }
        stats.states_checked += 1;
        checked_indices.push(idx);
        let v = match &computed[idx] {
            Ok(v) => *v,
            Err(msg) => {
                stats.states_diagnostic += 1;
                pc_rt::obs::count("recover.diagnostic", 1);
                diagnostics.push(format!("crash state {idx}: {msg}"));
                if cfg.fail_fast {
                    break;
                }
                continue;
            }
        };
        if let (_, Some((layer, violated_model))) = v {
            raw_inconsistent += 1;
            if layer == LayerVerdict::IoLibBug {
                h5_bad_pfs_ok += 1;
            }
            let (legal_views, legal_h5) = match legal_of[idx].get().expect("prefilled") {
                Ok(ls) => ls,
                Err(_) => unreachable!("verdict computed implies legal states exist"),
            };
            // The classifier's flip oracle re-runs recovery on probe
            // states; a panic there poisons only this state.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                aggregate_or_classify(
                    stack,
                    rec,
                    &topo,
                    &pa,
                    cfg,
                    state,
                    idx,
                    layer,
                    violated_model,
                    legal_views,
                    legal_h5,
                    baseline_h5.as_ref(),
                    &modified_keys,
                    &mut bugs,
                    &mut witness_state,
                    &mut pruner,
                    cfg.mode.prunes(),
                )
            }));
            if let Err(p) = caught {
                stats.states_diagnostic += 1;
                pc_rt::obs::count("recover.diagnostic", 1);
                diagnostics.push(format!(
                    "crash state {idx}: classification failed: {}",
                    pc_rt::pool::panic_message(p.as_ref())
                ));
            }
            if cfg.fail_fast {
                break;
            }
        }
    }
    drop(stage);

    // Reconstruction cost over the mode's visiting order: the optimized
    // mode rebuilds incrementally along a greedy-TSP route; the others
    // restart per state.
    let stage = pc_rt::obs::span_cat("check.cost_model", "check");
    let fingerprints: Vec<Vec<u64>> = states
        .iter()
        .map(|s| server_fingerprints(rec, n_servers, s))
        .collect();
    let cost = CostModel::for_restart(stack.pfs.restart_cost_secs());
    let visit: Vec<usize> = if cfg.mode.incremental() {
        let checked_fps: Vec<Vec<u64>> = checked_indices
            .iter()
            .map(|&i| fingerprints[i].clone())
            .collect();
        tsp_order(&checked_fps)
            .into_iter()
            .map(|j| checked_indices[j])
            .collect()
    } else {
        checked_indices.clone()
    };
    let mut prev_fp: Option<&[u64]> = None;
    for &idx in &visit {
        let (secs, rebuilds) = cost.state_cost(
            cfg.mode.incremental(),
            prev_fp,
            &fingerprints[idx],
            states[idx].persisted.count(),
        );
        stats.sim_seconds += secs;
        stats.server_rebuilds += rebuilds;
        prev_fp = Some(&fingerprints[idx]);
    }
    drop(stage);

    // Provenance pass: build an explain bundle per aggregated bug. Runs
    // after aggregation so bundles carry final occurrence counts. The
    // pass is presentation-plane: a panic inside it is a warning, never
    // a diagnostic, so canonical_report() is identical with explain on
    // or off.
    let mut explanations: Vec<crate::explain::BugExplanation> = Vec::new();
    if (cfg.explain || pc_rt::obs::summary_enabled()) && !bugs.is_empty() {
        let stage = pc_rt::obs::span_cat("check.explain", "check");
        for ((sig, layer), bug) in bugs.iter() {
            let Some(&widx) = witness_state.get(&(sig.clone(), *layer)) else {
                continue;
            };
            let Some(Ok((legal_views, legal_h5))) = legal_of[widx].get() else {
                continue;
            };
            let ctx = crate::explain::ExplainCtx {
                stack,
                graph: &graph,
                pa: &pa,
                topo: &topo,
                cfg,
                legal_views: legal_views.as_slice(),
                legal_h5: legal_h5.as_slice(),
                baseline_h5: baseline_h5.as_ref(),
                modified_keys: &modified_keys,
            };
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::explain::explain_bug(&ctx, bug, &states[widx], widx)
            }));
            match caught {
                Ok(e) => explanations.push(e),
                Err(p) => pc_rt::pc_warn!(
                    "explain failed for {sig}: {}",
                    pc_rt::pool::panic_message(p.as_ref())
                ),
            }
        }
        pc_rt::obs::count("explain.bugs", explanations.len() as u64);
        drop(stage);
    }

    stats.pfs_cache = pfs_cache.stats();
    stats.h5_cache = h5_cache.stats();
    stats.legal_replays = stats.pfs_cache.misses + stats.h5_cache.misses;
    stats.wall_seconds = started.elapsed().as_secs_f64();
    pc_rt::obs::count("cache.pfs.hits", stats.pfs_cache.hits as u64);
    pc_rt::obs::count("cache.pfs.misses", stats.pfs_cache.misses as u64);
    pc_rt::obs::count("cache.pfs.evictions", stats.pfs_cache.evictions as u64);
    pc_rt::obs::count("cache.h5.hits", stats.h5_cache.hits as u64);
    pc_rt::obs::count("cache.h5.misses", stats.h5_cache.misses as u64);
    pc_rt::obs::count("cache.h5.evictions", stats.h5_cache.evictions as u64);
    pc_rt::obs::count("check.states_checked", stats.states_checked as u64);
    pc_rt::obs::count("check.states_pruned", stats.states_pruned as u64);
    drop(check_span);
    if pc_rt::obs::stream::enabled() {
        pc_rt::obs::stream::emit(
            pc_rt::obs::stream::EventKind::Snapshot,
            "check_stack",
            stats.states_checked as u64,
            &format!(
                "pfs={} states={} inconsistent={} bugs={}",
                stack.pfs.name(),
                stats.states_checked,
                raw_inconsistent,
                bugs.len(),
            ),
        );
    }
    if pc_rt::obs::summary_enabled() {
        eprintln!(
            "{}",
            pc_rt::obs::render_summary(&tl_mark, &format!("check_stack/{}", stack.pfs.name()))
        );
        for e in &explanations {
            eprintln!("  pinpoint: {}", e.pinpoint());
        }
    }
    CheckOutcome {
        pfs_name: stack.pfs.name().to_string(),
        bugs: bugs.into_values().collect(),
        raw_inconsistent_states: raw_inconsistent,
        h5_bad_pfs_ok_states: h5_bad_pfs_ok,
        stats,
        diagnostics,
        explanations,
        rep_digests,
    }
}

/// §5.3 exploration pruning test (extracted for readability).
fn pruner_skips(
    pruner: &Pruner,
    rec: &Recorder,
    topo: &simnet::ClusterTopology,
    pa: &PersistAnalysis,
    state: &crate::emulate::CrashState,
) -> bool {
    pruner.redundant(rec, topo, pa, state)
}

/// §5.2 aggregation + Table 1 classification for one inconsistent state:
/// count it against an already-reported cause if its damage pattern
/// matches, otherwise classify it and (in the pruning modes) teach the
/// exploration pruner the new pattern.
#[allow(clippy::too_many_arguments)] // orchestration seam, intentionally explicit
fn aggregate_or_classify(
    stack: &Stack,
    rec: &Recorder,
    topo: &simnet::ClusterTopology,
    pa: &PersistAnalysis,
    cfg: &CheckConfig,
    state: &crate::emulate::CrashState,
    state_index: usize,
    layer: LayerVerdict,
    violated_model: Model,
    legal_views: &[PfsView],
    legal_h5: &[H5Logical],
    baseline_h5: Option<&H5Logical>,
    modified_keys: &BTreeSet<String>,
    bugs: &mut BTreeMap<(BugSignature, LayerVerdict), Inconsistency>,
    witness_state: &mut BTreeMap<(BugSignature, LayerVerdict), usize>,
    pruner: &mut Pruner,
    learn: bool,
) {
    let mut reported = Pruner::new();
    for (sig, _) in bugs.keys() {
        reported.learn(sig);
    }
    if reported.redundant(rec, topo, pa, state) {
        for ((sig, _), bug) in bugs.iter_mut() {
            let mut single = Pruner::new();
            single.learn(sig);
            if single.redundant(rec, topo, pa, state) {
                bug.occurrences += 1;
                break;
            }
        }
        return;
    }
    let mut oracle = |persisted: &BitSet| -> bool {
        let v = recovered_view(stack, persisted);
        if let Some(path) = &stack.h5_path {
            h5_verdict(cfg, path, &v, legal_h5, baseline_h5, modified_keys).is_none()
        } else {
            legal_views.contains(&v)
        }
    };
    let signature = {
        let _s = pc_rt::obs::span_cat("check.classify", "check");
        classify(rec, topo, pa, state, &mut oracle)
    };
    if learn {
        pruner.learn(&signature);
    }
    bugs.entry((signature.clone(), layer))
        .and_modify(|b| b.occurrences += 1)
        .or_insert_with(|| {
            witness_state.insert((signature.clone(), layer), state_index);
            // Witness ops in event-id (trace) order — the order they
            // were issued — not lexicographic string order. Built only
            // for the first state that exposes the bug.
            let mut witness_events: Vec<EventId> = state.unpersisted(pa);
            witness_events.extend(state.victims.iter().copied());
            witness_events.sort_unstable();
            witness_events.dedup();
            let witness: Vec<String> = witness_events
                .iter()
                .map(|&e| op_detail(rec, topo, e))
                .collect();
            Inconsistency {
                signature,
                layer,
                violated_model,
                witness,
                occurrences: 1,
            }
        });
}

/// Materialize a persisted set on a COW fork of the baseline snapshot,
/// recover, mount. Used by the classifier's flip oracle, whose probe
/// sets are not prefix-structured — both engines share this path, which
/// keeps their verdicts identical by construction.
fn recovered_view(stack: &Stack, persisted: &BitSet) -> PfsView {
    let mut states = stack.pfs.baseline().fork();
    states.apply_events(&stack.rec, persisted.iter());
    let (_, view) = recover_and_mount(stack.pfs.as_ref(), &mut states);
    view
}

/// All legal PFS views for a candidate op set under `model`.
fn legal_pfs_views(
    stack: &Stack,
    factory: &StackFactory,
    model: Model,
    graph: &CausalityGraph,
    candidates: &[EventId],
    committed: &[EventId],
) -> Vec<PfsView> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for set in model.preserved_sets(graph, candidates, committed) {
        let subset: Vec<(Process, PfsCall)> = stack.calls.subset(&set);
        if let Some(view) = replay_pfs(factory, &stack.pre_calls, &subset) {
            if seen.insert(view.digest()) {
                out.push(view);
            }
        }
    }
    out
}

/// All legal I/O-library logical states for a candidate op set.
fn legal_h5_logicals(
    stack: &Stack,
    factory: &StackFactory,
    model: Model,
    graph: &CausalityGraph,
    candidates: &[EventId],
) -> Vec<H5Logical> {
    let path = stack.h5_path.as_deref().expect("h5 program");
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    // The baseline model's golden comparison is dataset-granular rather
    // than whole-state, but its legal *full* states still come from the
    // causal sets (a weaker model only adds legal states — handled in
    // `h5_verdict`).
    let enum_model = if model == Model::Baseline {
        Model::Causal
    } else {
        model
    };
    for set in enum_model.preserved_sets(graph, candidates, &[]) {
        let subset: Vec<(u32, h5sim::H5Call)> = stack.h5.subset(&set);
        if let Some(logical) = replay_h5(
            factory,
            path,
            &stack.h5_ranks,
            &stack.pre_h5,
            &subset,
            stack.h5_spec,
        ) {
            if seen.insert(logical.digest()) {
                out.push(logical);
            }
        }
    }
    out
}

/// Dataset keys the test program modifies.
fn modified_dataset_keys(stack: &Stack) -> BTreeSet<String> {
    use h5sim::H5Call;
    let mut keys = BTreeSet::new();
    for (_, _, call) in stack.h5.entries() {
        match call {
            H5Call::CreateDataset { group, name, .. }
            | H5Call::CreateDatasetParallel { group, name, .. }
            | H5Call::ResizeDataset { group, name, .. }
            | H5Call::ResizeDatasetParallel { group, name, .. }
            | H5Call::DeleteDataset { group, name } => {
                keys.insert(h5sim::format::dataset_key(group, name));
            }
            H5Call::RenameDataset {
                src_group,
                src_name,
                dst_group,
                dst_name,
            } => {
                keys.insert(h5sim::format::dataset_key(src_group, src_name));
                keys.insert(h5sim::format::dataset_key(dst_group, dst_name));
            }
            _ => {}
        }
    }
    keys
}

/// I/O-library-layer verdict for one recovered view: `None` if
/// consistent under `cfg.h5_model`, otherwise the weakest violated model
/// (baseline < causal).
pub(crate) fn h5_verdict(
    cfg: &CheckConfig,
    path: &str,
    view: &PfsView,
    legal: &[H5Logical],
    baseline: Option<&H5Logical>,
    modified: &BTreeSet<String>,
) -> Option<Model> {
    let Some(bytes) = view.read(path) else {
        // The file itself is gone or unreadable through the PFS.
        return Some(Model::Baseline);
    };
    // h5check; on failure let h5clear try to repair (§4.4.3).
    let strict = match h5check(bytes) {
        Ok(l) => Some(l),
        Err(_) => {
            let cleared = h5clear(bytes, cfg.clear_opts);
            h5check(&cleared).ok()
        }
    };
    // Fast path: a state that parses cleanly and matches a causal golden
    // state is consistent under every model — no need for the
    // dataset-granular baseline walk (most crash states are legal).
    if strict.as_ref().is_some_and(|l| legal.contains(l)) {
        return None;
    }
    // Baseline: every dataset that was closed before the crash (i.e. not
    // modified by the test program) must still be readable and intact.
    let violates_baseline = {
        let cleared = h5clear(bytes, cfg.clear_opts);
        let lenient = {
            let first = check_lenient(bytes);
            if first.open_error.is_some()
                || first.datasets.values().any(|d| d.is_err())
                || !first.group_errors.is_empty()
            {
                check_lenient(&cleared)
            } else {
                first
            }
        };
        if lenient.open_error.is_some() {
            true
        } else if let Some(base) = baseline {
            base.datasets.iter().any(|(key, expected)| {
                if modified.contains(key) {
                    return false;
                }
                !matches!(lenient.datasets.get(key), Some(Ok(v)) if v == expected)
            })
        } else {
            false
        }
    };
    let violates_causal = violates_baseline || strict.map(|l| !legal.contains(&l)).unwrap_or(true);

    let violated = match cfg.h5_model {
        Model::Baseline => violates_baseline,
        _ => violates_causal,
    };
    if !violated {
        None
    } else if violates_baseline {
        Some(Model::Baseline)
    } else {
        Some(Model::Causal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::ExploreMode;
    use pfs::beegfs::BeeGfs;
    use pfs::ext4::Ext4Direct;

    fn beegfs_factory() -> StackFactory {
        Box::new(|| Box::new(BeeGfs::paper_default()))
    }

    fn ext4_factory() -> StackFactory {
        Box::new(|| Box::new(Ext4Direct::paper_default()))
    }

    fn run_arvr(factory: &StackFactory) -> Stack {
        let mut stack = Stack::new(factory());
        stack.posix(
            0,
            PfsCall::Creat {
                path: "/file".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: "/file".into(),
                offset: 0,
                data: b"old".to_vec(),
            },
        );
        stack.posix(
            0,
            PfsCall::Close {
                path: "/file".into(),
            },
        );
        stack.seal_preamble();
        stack.posix(
            0,
            PfsCall::Creat {
                path: "/tmp".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Pwrite {
                path: "/tmp".into(),
                offset: 0,
                data: b"new".to_vec(),
            },
        );
        stack.posix(
            0,
            PfsCall::Close {
                path: "/tmp".into(),
            },
        );
        stack.posix(
            0,
            PfsCall::Rename {
                src: "/tmp".into(),
                dst: "/file".into(),
            },
        );
        stack
    }

    #[test]
    fn arvr_on_beegfs_finds_bugs() {
        let factory = beegfs_factory();
        let stack = run_arvr(&factory);
        let cfg = CheckConfig {
            mode: ExploreMode::BruteForce,
            ..CheckConfig::paper_default()
        };
        let outcome = check_stack(&stack, &factory, &cfg);
        assert!(outcome.raw_inconsistent_states > 0, "{outcome:?}");
        assert!(!outcome.bugs.is_empty());
        assert!(outcome.pfs_bugs() > 0);
        assert_eq!(outcome.h5_bad_pfs_ok_states, 0);
        // Bug 1's shape must be among the signatures: the storage-side
        // append reordered after metadata-side rename work.
        let sigs: Vec<String> = outcome
            .bugs
            .iter()
            .map(|b| b.signature.to_string())
            .collect();
        assert!(
            sigs.iter()
                .any(|s| s.contains("append(file chunk)@storage")),
            "signatures: {sigs:?}"
        );
    }

    #[test]
    fn arvr_on_ext4_is_clean() {
        let factory = ext4_factory();
        let stack = run_arvr(&factory);
        let cfg = CheckConfig {
            mode: ExploreMode::BruteForce,
            ..CheckConfig::paper_default()
        };
        let outcome = check_stack(&stack, &factory, &cfg);
        assert_eq!(outcome.raw_inconsistent_states, 0, "{:?}", outcome.bugs);
        assert!(outcome.bugs.is_empty());
    }

    #[test]
    fn pruning_finds_the_same_bugs_faster() {
        let factory = beegfs_factory();
        let stack = run_arvr(&factory);
        let brute = check_stack(
            &stack,
            &factory,
            &CheckConfig {
                mode: ExploreMode::BruteForce,
                ..CheckConfig::paper_default()
            },
        );
        let pruned = check_stack(
            &stack,
            &factory,
            &CheckConfig {
                mode: ExploreMode::Pruning,
                ..CheckConfig::paper_default()
            },
        );
        let optimized = check_stack(
            &stack,
            &factory,
            &CheckConfig {
                mode: ExploreMode::Optimized,
                ..CheckConfig::paper_default()
            },
        );
        let sigs = |o: &CheckOutcome| -> BTreeSet<String> {
            o.bugs.iter().map(|b| b.signature.to_string()).collect()
        };
        // §5.3 / §6.4: pruning does not reduce the bugs discovered.
        assert_eq!(sigs(&brute), sigs(&pruned));
        assert_eq!(sigs(&brute), sigs(&optimized));
        assert!(pruned.stats.states_checked < brute.stats.states_checked);
        assert!(optimized.stats.sim_seconds < brute.stats.sim_seconds);
    }
}
