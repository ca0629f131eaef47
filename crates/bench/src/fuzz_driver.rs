//! The fuzzing campaign driver: generated corpus × (file system ×
//! journaling mode) through `check_stack`, folded into a
//! [`FuzzCorpus`], with automatic triage of novel findings.
//!
//! Cells run **sequentially** on purpose: `check_stack` already
//! parallelizes internally over crash states, and its
//! `canonical_report` is `PC_THREADS`-invariant — so running the cell
//! loop in-order makes the whole campaign's report byte-identical
//! whatever the thread count, which is exactly the determinism contract
//! the CI crash gate diffs (`paracrash::fuzz` module docs).
//!
//! Triage: [`FuzzCorpus::record_cell`] returns the keys a cell *newly*
//! contributed. Only those cells are re-run with the explain engine
//! enabled (the provenance pass costs real time on buggy cells), and
//! each novel finding gets a self-contained bundle under
//! `findings_out`: Markdown report, Graphviz causal graph, JSON
//! (minimal witness + violated edges + state diff), plus a `.repro`
//! file with the exact workload label and re-run command line.
//!
//! Live observability rides along without touching the fold: each cell
//! gets a fresh causal trace id, its wall time feeds the
//! [`crate::progress::CampaignMeter`] (PC_PROGRESS lines, stall and
//! throughput-regression warnings), and — when the event stream is on —
//! the driver publishes a `cell` event per completed cell, a `finding`
//! event per novel finding, and a `snapshot` event with the Good–Turing
//! saturation estimate every [`SNAPSHOT_EVERY`] cells, flushing the
//! flight recorder to the sink after every cell so a killed campaign
//! leaves a readable stream behind.

use paracrash::fuzz::FindingKey;
use paracrash::{check_stack, CheckConfig, FuzzCorpus};
use pc_rt::obs::stream;
use pc_rt::pc_warn;
use simfs::JournalMode;
use workloads::generated::{self, GeneratedWorkload};
use workloads::{FsKind, Params};

use crate::progress::CampaignMeter;

/// Emit a `snapshot` delta event (and flush) every this many cells.
pub const SNAPSHOT_EVERY: usize = 32;

/// Short journaling-mode label used in reports, bundle names and the
/// CLI (`--modes data,ordered,…`).
pub fn mode_label(mode: JournalMode) -> &'static str {
    match mode {
        JournalMode::Data => "data",
        JournalMode::Ordered => "ordered",
        JournalMode::Writeback => "writeback",
        JournalMode::None => "none",
    }
}

/// Parse a `--modes` list: comma-separated short labels or `all`.
pub fn parse_modes(spec: &str) -> Option<Vec<JournalMode>> {
    if spec.eq_ignore_ascii_case("all") {
        return Some(vec![
            JournalMode::Data,
            JournalMode::Ordered,
            JournalMode::Writeback,
            JournalMode::None,
        ]);
    }
    spec.split(',').map(JournalMode::parse).collect()
}

/// Everything one fuzzing campaign needs.
pub struct FuzzOptions {
    /// Maximum POSIX sequence length (HDF5/MPI-IO sequences are one op
    /// shorter — `workloads::generated` module docs).
    pub bound: usize,
    /// Seed for the sampling mode (ignored when `sample` is `None`, but
    /// still recorded in `.repro` files so a finding names its run).
    pub seed: u64,
    /// `Some(n)`: check a seeded deterministic sample of `n` workloads
    /// instead of the exhaustive corpus (the nightly tier).
    pub sample: Option<usize>,
    /// File systems under test.
    pub file_systems: Vec<FsKind>,
    /// Journaling modes of the servers' local stores (the sweep axis
    /// GPFS ignores — it journals at the block layer).
    pub modes: Vec<JournalMode>,
    /// Directory for per-finding triage bundles; `None` skips triage.
    pub findings_out: Option<String>,
    /// Workload parameters (quick or paper scale).
    pub params: Params,
    /// Checker configuration (explain is forced on only for the triage
    /// re-runs, never for the sweep itself).
    pub cfg: CheckConfig,
}

impl FuzzOptions {
    /// The PR-tier defaults: exhaustive bound-2 corpus, BeeGFS +
    /// OrangeFS, data journaling, quick parameters, no triage output.
    /// Representative-state digests are collected so the corpus (and
    /// its pinned report) counts distinct crash states, not just
    /// verdict classes.
    pub fn pr_tier() -> FuzzOptions {
        let mut cfg = crate::default_config();
        cfg.collect_rep_digests = true;
        FuzzOptions {
            bound: 2,
            seed: 42,
            sample: None,
            file_systems: vec![FsKind::BeeGfs, FsKind::OrangeFs],
            modes: vec![JournalMode::Data],
            findings_out: None,
            params: Params::quick(),
            cfg,
        }
    }
}

/// What a campaign produced.
pub struct FuzzReport {
    /// The deduplicated findings corpus.
    pub corpus: FuzzCorpus,
    /// Workloads drawn from the generator (corpus or sample size).
    pub workloads: usize,
    /// Triage bundles written (0 without `findings_out`).
    pub bundles: usize,
}

/// Filesystem-safe bundle-name component.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Run one campaign: every generated workload through every
/// `(fs, mode)` cell, deduplicating into a [`FuzzCorpus`] and writing
/// triage bundles for novel findings.
pub fn fuzz_campaign(opts: &FuzzOptions) -> Result<FuzzReport, String> {
    let workloads = match opts.sample {
        Some(n) => generated::sample(opts.bound, opts.seed, n),
        None => generated::corpus(opts.bound),
    };
    let mut corpus = FuzzCorpus::new();
    let mut bundles = 0usize;
    let total_cells = workloads.len() * opts.file_systems.len() * opts.modes.len();
    let mut meter = CampaignMeter::new(total_cells);
    for w in &workloads {
        for &fs in &opts.file_systems {
            for &mode in &opts.modes {
                let params = opts.params.clone().with_journal(mode);
                let label = w.label();
                let cell_label = format!("{label}@{}/{}", fs.name(), mode_label(mode));
                // Fresh causal trace id: every span this cell opens —
                // replay, checker stages, simnet RPC on pool workers —
                // tags it, giving Chrome-trace one flow per check.
                pc_rt::obs::set_trace_id(pc_rt::obs::next_trace_id());
                let started = std::time::Instant::now();
                let stack = w.run(fs, &params);
                let factory = fs.factory(&params);
                let outcome = check_stack(&stack, &factory, &opts.cfg);
                let wall_ns = started.elapsed().as_nanos() as u64;
                let novel = corpus.record_cell(&label, fs.name(), mode_label(mode), &outcome);
                if stream::enabled() {
                    for (key_fs, journal, signature, layer) in &novel {
                        stream::emit(
                            stream::EventKind::Finding,
                            &format!("{key_fs}/{journal}"),
                            1,
                            &format!("{signature} [{layer:?}] first={label}"),
                        );
                    }
                    stream::emit(
                        stream::EventKind::Cell,
                        &cell_label,
                        wall_ns,
                        &format!(
                            "behaviors={} findings={} buggy={}",
                            corpus.behavior_count(),
                            corpus.finding_count(),
                            corpus.buggy_cells,
                        ),
                    );
                }
                pc_rt::obs::set_trace_id(0);
                if !novel.is_empty() {
                    if let Some(dir) = &opts.findings_out {
                        bundles += triage(dir, w, fs, &params, &opts.cfg, &novel, opts)?;
                    }
                }
                for warning in meter.note_cell(&cell_label, wall_ns) {
                    pc_warn!("{warning}");
                }
                meter.maybe_print(
                    corpus.behavior_count(),
                    corpus.finding_count(),
                    corpus.saturation(),
                );
                if stream::enabled() {
                    let done = meter.done();
                    if done % SNAPSHOT_EVERY == 0 || done == total_cells {
                        stream::emit(
                            stream::EventKind::Snapshot,
                            "campaign",
                            done as u64,
                            &format!(
                                "cells={done}/{total_cells} behaviors={} findings={} \
                                 saturation_pct={:.0}",
                                corpus.behavior_count(),
                                corpus.finding_count(),
                                corpus.saturation() * 100.0,
                            ),
                        );
                    }
                    // Per-cell drain: a killed or wedged campaign still
                    // leaves everything up to its last finished cell.
                    stream::flush();
                }
            }
        }
    }
    Ok(FuzzReport {
        corpus,
        workloads: workloads.len(),
        bundles,
    })
}

/// Re-run one novel cell through the explain engine and write one
/// bundle per novel finding key. Returns the number of bundles written.
/// Shared with the resumable campaign driver ([`crate::campaign`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn triage(
    dir: &str,
    w: &GeneratedWorkload,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
    novel: &[FindingKey],
    opts: &FuzzOptions,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut explain_cfg = cfg.clone();
    explain_cfg.explain = true;
    let stack = w.run(fs, params);
    let factory = fs.factory(params);
    let outcome = check_stack(&stack, &factory, &explain_cfg);
    let mut written = 0usize;
    for (i, key) in novel.iter().enumerate() {
        let (_, journal, signature, layer) = key;
        let stem = format!(
            "{}-{}-{}",
            sanitize(fs.name()),
            sanitize(journal),
            sanitize(&format!("{}-{:02}", w.label(), i + 1)),
        );
        let write = |ext: &str, text: String| -> Result<(), String> {
            let path = format!("{dir}/{stem}.{ext}");
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
        };
        let context = format!("{} on {} ({journal})", w.label(), fs.name());
        if let Some(e) = outcome
            .explanations
            .iter()
            .find(|e| e.signature.to_string() == *signature && e.layer == *layer)
        {
            write("md", e.to_markdown(&context))?;
            write("dot", e.to_dot())?;
            let mut json = e.to_json().pretty();
            json.push('\n');
            write("json", json)?;
        }
        let sample_arg = match opts.sample {
            Some(n) => format!(" --sample {n}"),
            None => String::new(),
        };
        write(
            "repro",
            format!(
                "workload: {}\nfs: {}\njournal: {}\nsignature: {}\nlayer: {:?}\n\
                 repro: paracrash fuzz --bound {} --seed {}{} --fs {} --modes {}\n",
                w.label(),
                fs.name(),
                journal,
                signature,
                layer,
                opts.bound,
                opts.seed,
                sample_arg,
                fs.name(),
                journal,
            ),
        )?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_roundtrips() {
        assert_eq!(parse_modes("all").unwrap().len(), 4);
        assert_eq!(
            parse_modes("data,none").unwrap(),
            vec![JournalMode::Data, JournalMode::None]
        );
        assert!(parse_modes("data,wat").is_none());
        for m in parse_modes("all").unwrap() {
            assert_eq!(parse_modes(mode_label(m)).unwrap(), vec![m]);
        }
    }

    #[test]
    fn tiny_campaign_is_deterministic() {
        // One FS, one mode, sampled corpus: two runs must render
        // byte-identical reports.
        let opts = FuzzOptions {
            sample: Some(6),
            file_systems: vec![FsKind::BeeGfs],
            ..FuzzOptions::pr_tier()
        };
        let a = fuzz_campaign(&opts).unwrap();
        let b = fuzz_campaign(&opts).unwrap();
        assert_eq!(a.workloads, 6);
        assert_eq!(
            a.corpus.canonical_report(),
            b.corpus.canonical_report(),
            "same seed+bound must reproduce byte-identically"
        );
        assert_eq!(a.corpus.cells, 6);
    }
}
