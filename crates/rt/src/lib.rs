#![warn(missing_docs)]

//! `pc-rt` — the vendored runtime of the ParaCrash reproduction.
//!
//! The workspace builds **hermetically**: `cargo build --release --offline`
//! must succeed from a cold, empty cargo registry, so nothing in the tree
//! may depend on a registry crate. This crate supplies, on top of `std`
//! alone, the four pieces of infrastructure the framework previously
//! pulled from crates.io:
//!
//! * [`pool`] — a scoped worker pool with `par_map` / `par_chunks`
//!   plus a work-stealing task scheduler (`Pool::scope`) for pipelined
//!   stages (replaces `rayon` on the crash-state verdict fan-out of
//!   Algorithm 1's exploration loop). Thread count comes from the
//!   `PC_THREADS` environment variable, defaulting to the machine's
//!   available parallelism.
//! * [`intern`] — process-global symbol interning (`Sym`, a 4-byte id)
//!   for the path components and structure labels the simulation layers
//!   key their maps by.
//! * [`rng`] — a deterministic SplitMix64-seeded xoshiro256\*\* PRNG
//!   (replaces `rand`). Same seed, same stream, on every platform.
//! * [`proptest`] — a seeded property-testing harness with
//!   shrinking-by-halving and failure-seed reporting (replaces the
//!   `proptest` crate for the suite's property tests).
//! * [`mod@bench`] — a wall-clock microbenchmark harness with warmup,
//!   median/p95 reporting and machine-readable results (replaces
//!   `criterion` for `pc-bench`'s benches).
//! * [`durable`] — crash-safe on-disk primitives (an append-only
//!   CRC-checked record log with torn-tail recovery, atomic-rename
//!   checkpoints, and the `PC_DURABLE_CRASH` self-crash-testing hook)
//!   backing the resumable campaign engine.
//! * [`obs`] — structured telemetry (spans, counters, gauges,
//!   histograms, a leveled logger) for the checker pipeline itself
//!   (replaces `tracing`). Off by default; `PC_TRACE` / `PC_LOG`
//!   or the `paracrash --telemetry-out` flag turn it on.
//! * [`obs::prof`] — the self-profiling plane: a seqlock shadow-stack
//!   sampling profiler (`.folded` flamegraph export via `PC_PROFILE` /
//!   `--profile-out`) and a counting `#[global_allocator]` attributing
//!   alloc count/bytes/peak to the innermost open span (replaces
//!   `pprof` + `dhat`). Off by default behind one relaxed atomic load.
//!
//! Owning the runtime is not only an offline-build workaround: the
//! exploration hot path (thousands of independent crash-state
//! reconstructions per trace) is exactly the loop later performance work
//! wants to schedule deliberately — batching states that share server
//! fingerprints, pinning replay caches per worker — which a black-box
//! `rayon` would not let us do.
//!
//! # Example
//!
//! ```
//! use pc_rt::{pool, rng::Rng};
//!
//! // Deterministic PRNG: same seed, same stream.
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//!
//! // Data-parallel map preserving input order.
//! let squares = pool::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod bench;
pub mod durable;
pub mod intern;
pub mod obs;
pub mod pool;
pub mod proptest;
pub mod rng;
