//! The ParaCrash configuration (§5).
//!
//! The original framework takes a configuration file specifying the
//! system configuration (mount point, storage directories, stripe size,
//! server/client counts), the crash-consistency model for each layer,
//! and the exploration mode. [`CheckConfig`] is that file;
//! [`CheckConfig::parse`] reads the same key-value format, and
//! [`paper_default`](CheckConfig::paper_default) mirrors Table 2.

use crate::explore::ExploreMode;
use crate::model::Model;
use h5sim::ClearOpts;
use simnet::FaultConfig;

/// Which implementation of the checker's hot paths a run uses. Both
/// must produce byte-identical reports; the reference engine exists to
/// check that the fast one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// COW prefix-shared crash-state snapshots, one recovery per
    /// snapshot-plan representative, memoized interned digests, and
    /// prefix-shared explain shrinking.
    Fast,
    /// The oracle: every crash state deep-clones the baseline, replays
    /// its full persisted prefix and runs its own recovery;
    /// representative digests use the string-walk
    /// `FsState::digest_reference`; explain shrinking replays each probe
    /// on its own.
    Reference,
}

impl Engine {
    /// The `PC_ENGINE` spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Reference => "reference",
        }
    }

    /// Parse the `PC_ENGINE` spelling.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "fast" => Some(Engine::Fast),
            "reference" => Some(Engine::Reference),
            _ => None,
        }
    }
}

/// Everything a check run needs besides the traced stack itself.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Crash-consistency model the PFS layer is tested against
    /// (the paper: causal, which every studied PFS nominally satisfies).
    pub pfs_model: Model,
    /// Crash-consistency model the I/O library layer is tested against
    /// (the paper tests baseline and causal).
    pub h5_model: Model,
    /// Maximum number of crash victims (Algorithm 1's `k`; the paper
    /// reports k = 1 suffices).
    pub k: usize,
    /// Exploration strategy.
    pub mode: ExploreMode,
    /// `h5clear` options used before declaring an H5 state inconsistent
    /// (the sensitivity knob of Table 3 bug 13).
    pub clear_opts: ClearOpts,
    /// Stripe size in bytes (Table 2: 128 KiB).
    pub stripe_size: u64,
    /// Number of metadata and storage servers.
    pub servers: (u32, u32),
    /// Number of application clients.
    pub clients: u32,
    /// Maximum entries held by each golden-state replay cache before
    /// LRU eviction (0 disables caching). Large enough that the paper's
    /// workloads never evict; a bound, not a tuning knob.
    pub replay_cache_cap: usize,
    /// Seeded fault plane for the run: RPC delivery faults during the
    /// traced workload plus torn-write widening of crash states. The
    /// default injects nothing and leaves every code path untouched.
    pub faults: FaultConfig,
    /// Stop exploring at the first inconsistent or diagnostic crash
    /// state instead of checking the full enumeration.
    pub fail_fast: bool,
    /// Build a provenance bundle ([`crate::explain::BugExplanation`])
    /// for every reproduced bug: minimal witness, causal-graph export,
    /// state diff. Off by default — the explain pass re-runs recovery
    /// on shrinking probes, which costs real time on buggy cells.
    pub explain: bool,
    /// Fast or reference hot paths. Programmatic only: the binaries
    /// read it from `PC_ENGINE`, never from the configuration file.
    pub engine: Engine,
    /// Collect the digests of the distinct *representative* crash
    /// states into [`crate::check::CheckOutcome::rep_digests`]
    /// (Pathfinder-style state identity for the campaign corpus). Off
    /// by default — digesting materialized states costs a tree walk per
    /// representative. Programmatic only: not part of the
    /// configuration-file format.
    pub collect_rep_digests: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A server count: a positive integer.
fn positive(value: &str) -> Option<u32> {
    value.parse().ok().filter(|&n| n > 0)
}

impl CheckConfig {
    /// The paper's evaluation setup: causal model for the PFS, causal
    /// for the I/O library (baseline violations are also causal
    /// violations and are reported as such), k = 1, optimized
    /// exploration, 2+2 servers, 2 clients, 128 KiB stripes.
    pub fn paper_default() -> Self {
        CheckConfig {
            pfs_model: Model::Causal,
            h5_model: Model::Causal,
            k: 1,
            mode: ExploreMode::Optimized,
            clear_opts: ClearOpts::default(),
            stripe_size: 128 * 1024,
            servers: (2, 2),
            clients: 2,
            replay_cache_cap: 4096,
            faults: FaultConfig::disabled(),
            fail_fast: false,
            explain: false,
            engine: Engine::Fast,
            collect_rep_digests: false,
        }
    }

    /// Parse the `key = value` configuration-file format.
    ///
    /// Recognized keys: `pfs_model`, `h5_model`, `k`, `mode`,
    /// `h5clear_increase_eof`, `stripe_size`, `meta_servers`,
    /// `storage_servers`, `clients`, `replay_cache_cap`, `faults`
    /// (a [`FaultConfig::parse_spec`] string), `fail_fast` and
    /// `explain`. Unknown keys, `k > 3` and zero server counts are
    /// rejected.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = Self::paper_default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("line {}: bad {what}: {value}", lineno + 1);
            match key {
                "pfs_model" => cfg.pfs_model = Model::parse(value).ok_or_else(|| bad("model"))?,
                "h5_model" => cfg.h5_model = Model::parse(value).ok_or_else(|| bad("model"))?,
                "k" => {
                    cfg.k = value
                        .parse()
                        .ok()
                        .filter(|&k| k <= 3)
                        .ok_or_else(|| bad("k (at most 3)"))?
                }
                "mode" => cfg.mode = ExploreMode::parse(value).ok_or_else(|| bad("mode"))?,
                "h5clear_increase_eof" => {
                    cfg.clear_opts.increase_eof = value.parse().map_err(|_| bad("bool"))?
                }
                "stripe_size" => cfg.stripe_size = value.parse().map_err(|_| bad("size"))?,
                "meta_servers" => {
                    cfg.servers.0 = positive(value).ok_or_else(|| bad("server count"))?
                }
                "storage_servers" => {
                    cfg.servers.1 = positive(value).ok_or_else(|| bad("server count"))?
                }
                "clients" => cfg.clients = value.parse().map_err(|_| bad("count"))?,
                "replay_cache_cap" => {
                    cfg.replay_cache_cap = value.parse().map_err(|_| bad("count"))?
                }
                "faults" => {
                    cfg.faults = FaultConfig::parse_spec(value)
                        .map_err(|e| format!("line {}: {e}", lineno + 1))?
                }
                "fail_fast" => cfg.fail_fast = value.parse().map_err(|_| bad("bool"))?,
                "explain" => cfg.explain = value.parse().map_err(|_| bad("bool"))?,
                other => return Err(format!("line {}: unknown key {other}", lineno + 1)),
            }
        }
        Ok(cfg)
    }

    /// Render back to the configuration-file format.
    pub fn render(&self) -> String {
        format!(
            "pfs_model = {}\nh5_model = {}\nk = {}\nmode = {}\n\
             h5clear_increase_eof = {}\nstripe_size = {}\n\
             meta_servers = {}\nstorage_servers = {}\nclients = {}\n\
             replay_cache_cap = {}\nfaults = {}\nfail_fast = {}\n\
             explain = {}\n",
            self.pfs_model.as_str(),
            self.h5_model.as_str(),
            self.k,
            self.mode.as_str(),
            self.clear_opts.increase_eof,
            self.stripe_size,
            self.servers.0,
            self.servers.1,
            self.clients,
            self.replay_cache_cap,
            self.faults.render_spec(),
            self.fail_fast,
            self.explain,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let cfg = CheckConfig::paper_default();
        assert_eq!(cfg.stripe_size, 128 * 1024);
        assert_eq!(cfg.servers, (2, 2));
        assert_eq!(cfg.clients, 2);
        assert_eq!(cfg.k, 1);
        assert_eq!(cfg.pfs_model, Model::Causal);
    }

    #[test]
    fn parse_roundtrip() {
        let cfg = CheckConfig::paper_default();
        let parsed = CheckConfig::parse(&cfg.render()).unwrap();
        assert_eq!(parsed.pfs_model, cfg.pfs_model);
        assert_eq!(parsed.stripe_size, cfg.stripe_size);
        assert_eq!(parsed.mode, cfg.mode);
        assert_eq!(parsed.replay_cache_cap, cfg.replay_cache_cap);
    }

    #[test]
    fn parse_faults_and_fail_fast() {
        let cfg = CheckConfig::parse(
            "faults = seed=7,drop=0.2,torn=true
fail_fast = true
",
        )
        .unwrap();
        assert_eq!(cfg.faults.seed, 7);
        assert!(cfg.faults.torn_writes && cfg.faults.enabled());
        assert!(cfg.fail_fast);
        let rt = CheckConfig::parse(&cfg.render()).unwrap();
        assert_eq!(rt.faults, cfg.faults);
        assert!(rt.fail_fast);
        assert!(CheckConfig::parse("faults = drop=2.0").is_err());
    }

    #[test]
    fn parse_explain_knob() {
        let cfg = CheckConfig::parse("explain = true\n").unwrap();
        assert!(cfg.explain);
        assert!(CheckConfig::parse(&cfg.render()).unwrap().explain);
        assert!(!CheckConfig::paper_default().explain);
    }

    #[test]
    fn engine_round_trips() {
        for e in [Engine::Fast, Engine::Reference] {
            assert_eq!(Engine::parse(e.as_str()), Some(e));
        }
        assert_eq!(Engine::parse("wat"), None);
        assert_eq!(CheckConfig::paper_default().engine, Engine::Fast);
    }

    #[test]
    fn parse_replay_cache_cap() {
        let cfg = CheckConfig::parse("replay_cache_cap = 16\n").unwrap();
        assert_eq!(cfg.replay_cache_cap, 16);
        assert!(CheckConfig::parse("replay_cache_cap = lots").is_err());
    }

    #[test]
    fn parse_overrides_and_comments() {
        let cfg = CheckConfig::parse(
            "# test config\npfs_model = commit\nk = 2\nmode = brute-force\nh5clear_increase_eof = true\n",
        )
        .unwrap();
        assert_eq!(cfg.pfs_model, Model::Commit);
        assert_eq!(cfg.k, 2);
        assert_eq!(cfg.mode, ExploreMode::BruteForce);
        assert!(cfg.clear_opts.increase_eof);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CheckConfig::parse("pfs_model = wat").is_err());
        assert!(CheckConfig::parse("unknown_key = 1").is_err());
        assert!(CheckConfig::parse("no equals sign").is_err());
        // Values the checker would panic on downstream.
        assert!(CheckConfig::parse("k = 7").is_err());
        assert!(CheckConfig::parse("k = 3").is_ok());
        assert!(CheckConfig::parse("meta_servers = 0").is_err());
        assert!(CheckConfig::parse("storage_servers = 0").is_err());
        // The engine is not a configuration-file key.
        assert!(CheckConfig::parse("engine = reference").is_err());
    }
}
