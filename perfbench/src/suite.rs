//! The four workloads: their cells, how one pass runs them, and the
//! output checks that decide whether a cell failed.
//!
//! A cell is one trace generation plus one `check_stack` call. A pass
//! runs every cell of the workload once, in an order drawn from the
//! seed. The workloads themselves are fixed matrices, so the seed moves
//! only the order cells run in (`fuzz` still folds its corpus in the
//! product's canonical order).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use paracrash::{
    check_stack, CheckConfig, CheckOutcome, ExploreMode, FuzzCorpus, LayerVerdict, Stack,
};
use pc_bench::dims_variants;
use pc_bench::fuzz_driver::{mode_label, parse_modes};
use workloads::generated::{self, GeneratedWorkload};
use workloads::ground_truth::{table3, BugLayer};
use workloads::{FsKind, Params, Program};

use crate::layers::LayerAcc;
use crate::Metric;

/// Fuzz sweep bound: the exhaustive bound-2 corpus.
const FUZZ_BOUND: usize = 2;
/// `paracrash fuzz --bound 2 --fs all --modes all`: the first line of
/// its report and an FNV-1a digest of the whole report.
const FUZZ_PIN: &str = include_str!("../fuzz_bound2_all.txt");
/// Figure 11 server points and the crash-state count each must keep.
const FIG11_SERVERS: [u32; 4] = [64, 256, 512, 1024];
const FIG11_STATES: usize = 547;
/// Pinned per-mode bug sets of the fig10 matrix: `fs program mode
/// count digest`, one line per (program, fs, mode).
const FIG10_PINS: &str = include_str!("../fig10_bugs.txt");
const FIG10_MODES: [ExploreMode; 3] = [
    ExploreMode::BruteForce,
    ExploreMode::Pruning,
    ExploreMode::Optimized,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table3,
    Fuzz,
    Fig10,
    Fig11,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "table3" => Some(Workload::Table3),
            "fuzz" => Some(Workload::Fuzz),
            "fig10" => Some(Workload::Fig10),
            "fig11" => Some(Workload::Fig11),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::Fuzz => "fuzz",
            Workload::Fig10 => "fig10",
            Workload::Fig11 => "fig11",
        }
    }
}

/// The traced program of a cell.
#[derive(Clone)]
pub enum Input {
    Paper(Program),
    Generated(GeneratedWorkload),
}

/// One trace generation plus one `check_stack` call.
#[derive(Clone)]
pub struct Cell {
    pub input: Input,
    pub fs: FsKind,
    pub params: Params,
    pub cfg: CheckConfig,
    /// Output-check group: (program, fs) for table3 and fig10, the
    /// server point for fig11, unused for fuzz.
    pub group: usize,
    /// Breakdown key: exploration mode (fig10), journal mode (fuzz).
    pub tag: &'static str,
}

impl Cell {
    pub fn trace(&self) -> Stack {
        match &self.input {
            Input::Paper(p) => p.run(self.fs, &self.params),
            Input::Generated(w) => w.run(self.fs, &self.params),
        }
    }

    fn program_name(&self) -> String {
        match &self.input {
            Input::Paper(p) => p.name().to_string(),
            Input::Generated(w) => w.label(),
        }
    }
}

/// What one cell produced.
pub struct CellResult {
    /// Trace generation plus `check_stack`, nanoseconds.
    pub wall_ns: u64,
    /// `check_stack` alone, nanoseconds.
    pub check_ns: u64,
    pub states: usize,
    /// False when the cell panicked or emitted a diagnostic.
    pub ok: bool,
    /// `(signature, layer)` of every reported bug.
    pub bugs: BTreeSet<(String, LayerVerdict)>,
}

impl CellResult {
    pub fn from_outcome(
        outcome: &std::thread::Result<CheckOutcome>,
        wall_ns: u64,
        check_ns: u64,
    ) -> CellResult {
        match outcome {
            Ok(o) => CellResult {
                wall_ns,
                check_ns,
                states: o.stats.states_total,
                ok: o.diagnostics.is_empty(),
                bugs: o
                    .bugs
                    .iter()
                    .map(|b| (b.signature.to_string(), b.layer))
                    .collect(),
            },
            Err(_) => CellResult {
                wall_ns,
                check_ns,
                states: 0,
                ok: false,
                bugs: BTreeSet::new(),
            },
        }
    }
}

/// Run one cell untraced.
fn run_cell(cell: &Cell) -> (CellResult, Option<CheckOutcome>) {
    let started = Instant::now();
    let mut check_ns = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let stack = cell.trace();
        let factory = cell.fs.factory(&cell.params);
        let t = Instant::now();
        let o = check_stack(&stack, &factory, &cell.cfg);
        check_ns = t.elapsed().as_nanos() as u64;
        o
    }));
    let wall_ns = started.elapsed().as_nanos() as u64;
    (
        CellResult::from_outcome(&outcome, wall_ns, check_ns),
        outcome.ok(),
    )
}

/// A workload ready to run: its cells, their order, and what the
/// output checks compare against.
pub struct Bench {
    pub workload: Workload,
    pub cells: Vec<Cell>,
    order: Vec<usize>,
    /// (program, fs) of each table3 / fig10 group.
    groups: Vec<(Program, FsKind)>,
}

impl Bench {
    pub fn build(workload: Workload, seed: u64) -> Bench {
        let mut groups = Vec::new();
        let cells = match workload {
            Workload::Table3 => table3_cells(&mut groups),
            Workload::Fig10 => fig10_cells(&mut groups),
            Workload::Fig11 => fig11_cells(),
            Workload::Fuzz => fuzz_cells(),
        };
        let mut order: Vec<usize> = (0..cells.len()).collect();
        pc_rt::rng::Rng::new(seed).shuffle(&mut order);
        Bench {
            workload,
            cells,
            order,
            groups,
        }
    }

    /// Check the first canonical cell of each file system once, untimed
    /// by the passes (thread pool, interner, allocator and each file
    /// system's first-use state warm up here).
    pub fn warm_up(&self) {
        let mut seen = BTreeSet::new();
        for cell in self.cells.iter().filter(|c| seen.insert(c.fs.name())) {
            let (r, _) = run_cell(cell);
            assert!(r.ok, "warm-up cell failed");
        }
    }

    /// One pass over every cell. With `acc`, each cell also times its
    /// layers (telemetry must be on).
    pub fn run_pass(&self, mut acc: Option<&mut LayerAcc>) -> Vec<CellResult> {
        let fuzz = self.workload == Workload::Fuzz;
        let mut slots: Vec<Option<CellResult>> = (0..self.cells.len()).map(|_| None).collect();
        let mut outcomes: Vec<Option<CheckOutcome>> = (0..self.cells.len()).map(|_| None).collect();
        for &i in &self.order {
            let (result, outcome) = match acc.as_deref_mut() {
                Some(acc) => acc.run_cell(&self.cells[i]),
                None => run_cell(&self.cells[i]),
            };
            slots[i] = Some(result);
            if fuzz {
                outcomes[i] = outcome;
            }
        }
        if fuzz {
            // The product's fold, in its canonical cell order.
            let t = Instant::now();
            let mut corpus = FuzzCorpus::new();
            for (cell, outcome) in self.cells.iter().zip(&outcomes) {
                if let Some(outcome) = outcome {
                    corpus.record_cell(&cell.program_name(), cell.fs.name(), cell.tag, outcome);
                }
            }
            if let Some(acc) = acc {
                acc.record_cell_ns += t.elapsed().as_nanos() as u64;
            }
            // The fuzz output check: the report must be what `paracrash
            // fuzz --bound 2 --fs all --modes all` prints, pinned in
            // `fuzz_bound2_all.txt` (first line plus FNV-1a digest).
            let report = corpus.canonical_report();
            let got = format!(
                "{}\nfnv1a64 {:016x}\n",
                report.lines().next().unwrap_or(""),
                fnv1a(report.bytes())
            );
            if got != FUZZ_PIN {
                eprintln!("perfbench: fuzz corpus report differs from the pin:\n{got}");
                for r in slots.iter_mut().flatten() {
                    r.ok = false;
                }
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("order is a permutation"))
            .collect()
    }

    /// Per-cell failure flags: a cell fails if it panicked, emitted a
    /// diagnostic, or belongs to an output check that failed.
    pub fn verify(&self, results: &[CellResult]) -> Vec<bool> {
        let mut failed: Vec<bool> = results.iter().map(|r| !r.ok).collect();
        match self.workload {
            Workload::Table3 => {
                // Every paper bug must be REPRODUCED, as the `table3`
                // binary decides it; a missing bug fails its programs'
                // cells.
                let mut found: BTreeMap<usize, BTreeSet<(String, LayerVerdict)>> = BTreeMap::new();
                for (c, r) in self.cells.iter().zip(results) {
                    found
                        .entry(c.group)
                        .or_default()
                        .extend(r.bugs.iter().cloned());
                }
                for bug in table3() {
                    let hit = found.iter().any(|(&g, bugs)| {
                        let (program, fs) = self.groups[g];
                        bug.programs.contains(&program.name())
                            && (bug.file_systems.contains(&fs.name())
                                || bug.file_systems == ["HDF5"])
                            && bugs.iter().any(|(_, l)| layer_matches(bug.layer, *l))
                    });
                    if !hit {
                        eprintln!("perfbench: table3 bug {} not reproduced", bug.no);
                        for (c, f) in self.cells.iter().zip(failed.iter_mut()) {
                            if let Input::Paper(p) = c.input {
                                *f |= bug.programs.contains(&p.name());
                            }
                        }
                    }
                }
            }
            Workload::Fig10 => {
                // Each (program, fs, mode) finds exactly the bugs pinned
                // in `fig10_bugs.txt` (count plus a digest of the set).
                let mut per: BTreeMap<(usize, &str), BTreeSet<(String, LayerVerdict)>> =
                    BTreeMap::new();
                for (c, r) in self.cells.iter().zip(results) {
                    per.entry((c.group, c.tag))
                        .or_default()
                        .extend(r.bugs.iter().cloned());
                }
                let pins: BTreeSet<&str> = FIG10_PINS.lines().collect();
                for ((g, mode), bugs) in &per {
                    let (p, fs) = self.groups[*g];
                    let line = format!(
                        "{} {} {mode} {} {:016x}",
                        fs.name(),
                        p.name(),
                        bugs.len(),
                        bug_set_digest(bugs)
                    );
                    if !pins.contains(line.as_str()) {
                        eprintln!("perfbench: fig10 bug set differs from the pin: {line}");
                        for (c, f) in self.cells.iter().zip(failed.iter_mut()) {
                            *f |= c.group == *g && c.tag == *mode;
                        }
                    }
                }
            }
            Workload::Fig11 => {
                for (c, (r, f)) in self.cells.iter().zip(results.iter().zip(failed.iter_mut())) {
                    if r.states != FIG11_STATES {
                        eprintln!(
                            "perfbench: fig11 at {} servers enumerates {} states, not {FIG11_STATES}",
                            FIG11_SERVERS[c.group], r.states
                        );
                        *f = true;
                    }
                }
            }
            Workload::Fuzz => {}
        }
        failed
    }

    /// Workload-specific breakdown of one pass: per-mode wall (fig10)
    /// and per-server-point `check_stack` time (fig11).
    pub fn breakdown(&self, results: &[CellResult]) -> Vec<Metric> {
        let mut out: Vec<Metric> = Vec::new();
        for mode in FIG10_MODES {
            let s: f64 = self
                .cells
                .iter()
                .zip(results)
                .filter(|(c, _)| self.workload == Workload::Fig10 && c.tag == mode.as_str())
                .fold(0.0, |acc, (_, r)| acc + r.wall_ns as f64 / 1e9);
            out.push((format!("mode_wall_s.{}", mode.as_str()), s, "s"));
        }
        for (g, n) in FIG11_SERVERS.iter().enumerate() {
            let ms: f64 = self
                .cells
                .iter()
                .zip(results)
                .filter(|(c, _)| self.workload == Workload::Fig11 && c.group == g)
                .fold(0.0, |acc, (_, r)| acc + r.check_ns as f64 / 1e6);
            out.push((format!("servers_check_ms.{n}"), ms, "ms"));
        }
        out
    }
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the sorted `layer|signature` lines of a bug set.
fn bug_set_digest(bugs: &BTreeSet<(String, LayerVerdict)>) -> u64 {
    let lines: String = bugs
        .iter()
        .map(|(sig, layer)| format!("{layer:?}|{sig}\n"))
        .collect();
    fnv1a(lines.bytes())
}

fn layer_matches(paper: BugLayer, found: LayerVerdict) -> bool {
    match paper {
        BugLayer::Pfs | BugLayer::IoLibPfsRooted => found == LayerVerdict::PfsBug,
        BugLayer::IoLib => found == LayerVerdict::IoLibBug,
    }
}

/// One cell per placement of `program` under `params`.
fn placement_cells(
    out: &mut Vec<Cell>,
    program: Program,
    fs: FsKind,
    params: &Params,
    cfg: &CheckConfig,
    group: usize,
    tag: &'static str,
) {
    for (_, placement) in program.placements() {
        out.push(Cell {
            input: Input::Paper(program),
            fs,
            params: params.clone().with_placement(placement),
            cfg: cfg.clone(),
            group,
            tag,
        });
    }
}

/// The quick-profile Table 3 matrix as the `table3` binary runs it: 11
/// programs × 6 file systems, every placement, the dims sweep for
/// I/O-library programs, plus the split-dims H5-resize variant — on
/// BeeGFS and ext4 only. The other four split-dims cells (~31 s of a
/// ~53 s pass on a 2-core host) repeat the BeeGFS cell's shape and would
/// not fit the run budget; bug 14 is found on both cells kept.
fn table3_cells(groups: &mut Vec<(Program, FsKind)>) -> Vec<Cell> {
    let params = Params::quick();
    let cfg = CheckConfig::paper_default();
    let mut cells = Vec::new();
    for program in Program::paper_eleven() {
        for fs in FsKind::all() {
            let group = groups.len();
            groups.push((program, fs));
            let mut variants = dims_variants(program, &params);
            if matches!(program, Program::H5Resize) && matches!(fs, FsKind::BeeGfs | FsKind::Ext4) {
                variants.push(params.clone().with_dims(params.split_dims()));
            }
            for v in &variants {
                placement_cells(&mut cells, program, fs, v, &cfg, group, "optimized");
            }
        }
    }
    cells
}

/// The `fig10` matrix: BeeGFS, OrangeFS, GlusterFS × 11 programs × the
/// three exploration modes.
fn fig10_cells(groups: &mut Vec<(Program, FsKind)>) -> Vec<Cell> {
    let params = Params::quick();
    let mut cells = Vec::new();
    for fs in [FsKind::BeeGfs, FsKind::OrangeFs, FsKind::GlusterFs] {
        for program in Program::paper_eleven() {
            let group = groups.len();
            groups.push((program, fs));
            for mode in FIG10_MODES {
                let cfg = CheckConfig {
                    mode,
                    ..CheckConfig::paper_default()
                };
                placement_cells(&mut cells, program, fs, &params, &cfg, group, mode.as_str());
            }
        }
    }
    cells
}

/// H5-create on BeeGFS at 64 … 1024 servers, the stripe shrinking with
/// the server count as in the repository's scale suite.
fn fig11_cells() -> Vec<Cell> {
    let base = Params::quick();
    let cfg = CheckConfig::paper_default();
    let mut cells = Vec::new();
    for (group, &n) in FIG11_SERVERS.iter().enumerate() {
        let params = base
            .clone()
            .with_servers(n / 2, n / 2)
            .with_stripe((base.stripe * 4 / u64::from(n)).max(256));
        placement_cells(
            &mut cells,
            Program::H5Create,
            FsKind::BeeGfs,
            &params,
            &cfg,
            group,
            "optimized",
        );
    }
    cells
}

/// The exhaustive bound-2 generated corpus over all six file systems
/// and all four journal modes, in the order `paracrash fuzz` checks it.
fn fuzz_cells() -> Vec<Cell> {
    let mut cfg = CheckConfig::paper_default();
    cfg.collect_rep_digests = true;
    let base = Params::quick();
    let modes = parse_modes("all").expect("valid modes");
    let mut cells = Vec::new();
    for w in generated::corpus(FUZZ_BOUND) {
        for fs in FsKind::all() {
            for &mode in &modes {
                cells.push(Cell {
                    input: Input::Generated(w.clone()),
                    fs,
                    params: base.clone().with_journal(mode),
                    cfg: cfg.clone(),
                    group: 0,
                    tag: mode_label(mode),
                });
            }
        }
    }
    cells
}
