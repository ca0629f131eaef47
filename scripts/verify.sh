#!/usr/bin/env bash
# Tier-1 verification for the hermetic, zero-registry-dependency build.
#
# Fourteen gates:
#   1. Dependency policy — every dependency in every Cargo.toml must be
#      an in-tree `path` crate (or a `*.workspace = true` reference to
#      one). Any registry dependency (a `version = "..."` requirement)
#      fails the build *before* cargo runs, with a pointed message.
#   2. Tier-1 — `cargo build --release` and `cargo test -q`, both fully
#      offline (CARGO_NET_OFFLINE=true + --offline), so a cold, empty
#      ~/.cargo/registry is sufficient.
#   3. Hygiene — `cargo fmt --check` and a warning-free build
#      (RUSTFLAGS="-D warnings").
#   4. Engine equivalence — the fast engine and the reference engine
#      (`CheckConfig::engine`) must report identically, checked once
#      sequentially (PC_THREADS=1) and once with the thread pool.
#   5. Telemetry — `paracrash --telemetry-out` must emit files that
#      re-parse with the vendored JSON reader (both plain and Chrome
#      trace-event formats, validated by `telemetry-check`), and the
#      *disabled* telemetry overhead on the snapshot-engine microbench
#      must stay under 3% (`telemetry-overhead`).
#   6. Fault plane — the seeded chaos suite must pass sequentially and
#      parallel, the CLI must produce bit-identical reports for the
#      same chaos seed across thread counts, a zero-fault full-matrix
#      run must reproduce exactly the paper's fifteen Table 3 bugs,
#      and the fault plane's *disabled* per-message overhead must stay
#      under 3% of a traced run (`faults-overhead`).
#   7. Provenance — a full-matrix `--explain-out` run must emit one
#      bundle per Table 3 bug; every `.json` must re-parse with the
#      vendored reader and every `.dot` must pass a structural lint
#      (`explain-check`), and the engine's *disabled* overhead on a
#      full check must stay under 3% (`explain-overhead`).
#   8. Fuzz crash gate — the PR-tier generated-workload sweep
#      (`paracrash fuzz`, exhaustive bound 2) must be byte-identical
#      across thread counts AND match the pinned corpus in
#      crates/bench/tests/expected_fuzz_pr_tier.txt; triage bundles
#      must materialize. PC_FUZZ_NIGHTLY=1 additionally runs the
#      large-bound sampled sweep (bound 3, all FSs, all journaling
#      modes) twice and diffs the runs.
#   9. Rustdoc — `cargo doc --no-deps` must build warning-free
#      (RUSTDOCFLAGS="-D warnings"), keeping every public item
#      documented.
#  10. Flag drift — every `--flag` printed by `paracrash --help` must
#      appear in README.md's flag table.
#  11. Extreme scale — a 64-server cell must report byte-identically
#      sequential vs parallel and under `PC_ENGINE=reference`; under
#      the reference engine the zero-fault matrix must match the fast
#      run and stay 15/15, and the PR-tier fuzz sweep (which digests
#      every representative state) must print the pinned corpus; and
#      `scale-check --live` must
#      validate the committed BENCH_scale.json invariants (batched
#      >= 2x oracle states/sec, sub-linear per-check growth 64->256
#      servers) with a live run inside a generous 2x band.
#  12. Live observability — a PR-tier fuzz run with --events-out must
#      still print the pinned canonical report, its event stream must
#      re-parse (`events-check`) and project identically sequential vs
#      parallel (`--canonical-diff`), `paracrash report` must render a
#      dashboard that passes the HTML lint (`events-check --html`), and
#      the *disabled* flight-recorder overhead must stay under 3%
#      (`stream-overhead`).
#  13. Crash-safe campaign — `durable-check` fuzzes the record log's
#      torn-tail recovery; a `paracrash campaign` killed by injected
#      crashes (`PC_DURABLE_CRASH`, exit mode, rc 137) mid-append, with
#      a torn partial record, and mid-checkpoint (before the atomic
#      rename), and by a real mid-sweep SIGKILL, must `--resume` to a
#      report byte-identical to an uninterrupted run — sequential and
#      parallel — and refuse to clobber existing state without
#      `--resume`.
#  14. Self-profiling plane — the *disabled* profiling overhead (span
#      hooks + the counting global allocator's fast path) must stay
#      under 3% (`prof-overhead`); a `--profile-out` fuzz run must
#      still print the pinned report and emit a canonical `.folded`
#      profile (`prof-check`) whose frames cover the engine's hot
#      stages; two `--history-dir` runs must round-trip through
#      `history show|diff|regressions`; the committed
#      BENCH_profiling.json invariants must hold; and `report
#      --profile` must render flame + alloc sections that pass the
#      HTML lint.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gate 1: no registry dependencies =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Within dependency tables, flag any spec that is neither a `path`
    # dependency nor a workspace inheritance.
    bad=$(awk '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/)
            next
        }
        in_deps && /=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /\.workspace[ \t]*=[ \t]*true/ && $0 !~ /^[ \t]*#/) {
                print FILENAME ": " $0
            }
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry dependency detected (hermetic-build policy forbids these):"
        echo "$bad"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "FAIL: vendor the functionality into crates/rt (pc-rt) or another in-tree crate."
    exit 1
fi
echo "ok: all dependencies are in-tree path crates"

echo "== gate 2: tier-1 build + tests, offline =="
export CARGO_NET_OFFLINE=true
cargo build --release --offline
cargo test -q --offline

echo "== gate 3: formatting + warning-free build =="
cargo fmt --check
RUSTFLAGS="-D warnings" cargo build --offline --workspace

echo "== gate 4: snapshot-engine equivalence, sequential and parallel =="
PC_THREADS=1 cargo test -q --offline --test snapshot_equivalence
cargo test -q --offline --test snapshot_equivalence

echo "== gate 5: telemetry emission + disabled-overhead budget =="
cargo build --release --offline -p pc-bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# BeeGFS/ARVR finds bugs, so the single-cell run exits 1 by design.
target/release/paracrash --fs BeeGFS --program ARVR \
    --telemetry-out "$tmp/telemetry.json" --telemetry-format chrome \
    > /dev/null || [ $? -eq 1 ]
target/release/telemetry-check "$tmp/telemetry.json"
target/release/paracrash --fs ext4 --program ARVR \
    --telemetry-out "$tmp/telemetry-plain.json" > /dev/null
target/release/telemetry-check "$tmp/telemetry-plain.json"
target/release/telemetry-overhead

echo "== gate 6: fault-plane determinism + zero-fault fidelity =="
spec="seed=7,drop=0.2,dup=0.1,delay=0.1,retries=3"
PC_THREADS=1 cargo test -q --offline --test chaos
cargo test -q --offline --test chaos --test torn_writes --test diagnostics
# Same chaos seed => bit-identical CLI report, regardless of thread
# count, via both the --faults flag and the PC_CHAOS_SEED fallback.
# BeeGFS/ARVR finds bugs, so the cells exit 1 by design.
target/release/paracrash --fs BeeGFS --program ARVR --faults "$spec" \
    > "$tmp/chaos-par.txt" || [ $? -eq 1 ]
PC_THREADS=1 target/release/paracrash --fs BeeGFS --program ARVR --faults "$spec" \
    > "$tmp/chaos-seq.txt" || [ $? -eq 1 ]
diff "$tmp/chaos-par.txt" "$tmp/chaos-seq.txt"
PC_CHAOS_SEED=7 target/release/paracrash --fs BeeGFS --program ARVR \
    > "$tmp/env-par.txt" || [ $? -eq 1 ]
PC_CHAOS_SEED=7 PC_THREADS=1 target/release/paracrash --fs BeeGFS --program ARVR \
    > "$tmp/env-seq.txt" || [ $? -eq 1 ]
diff "$tmp/env-par.txt" "$tmp/env-seq.txt"
# Zero-fault runs must still find exactly the paper's fifteen bugs.
target/release/table3 > "$tmp/table3.txt"
reproduced=$(grep -c "REPRODUCED" "$tmp/table3.txt")
if [ "$reproduced" -ne 15 ] || grep -q "missing" "$tmp/table3.txt"; then
    echo "FAIL: zero-fault matrix does not reproduce the 15 Table 3 bugs"
    grep -E "REPRODUCED|missing" "$tmp/table3.txt"
    exit 1
fi
target/release/faults-overhead

echo "== gate 7: explain bundles + disabled-overhead budget =="
# Full matrix: multi-cell runs always exit 0; bugs land as bundles.
target/release/paracrash --fs all --program all \
    --explain-out "$tmp/explain" > /dev/null
target/release/explain-check "$tmp/explain" 15
target/release/explain-overhead
cargo test -q --offline --test explain

echo "== gate 8: fuzz crash gate (PR tier; PC_FUZZ_NIGHTLY=1 widens) =="
# Exhaustive bound-2 sweep: thread-count invariant and pinned.
target/release/paracrash fuzz > "$tmp/fuzz-par.txt" 2> /dev/null
PC_THREADS=1 target/release/paracrash fuzz > "$tmp/fuzz-seq.txt" 2> /dev/null
diff "$tmp/fuzz-par.txt" "$tmp/fuzz-seq.txt"
if ! diff "$tmp/fuzz-par.txt" crates/bench/tests/expected_fuzz_pr_tier.txt; then
    echo "FAIL: PR-tier fuzz findings drifted from the pinned corpus."
    echo "If intended: regenerate with"
    echo "  target/release/paracrash fuzz 2>/dev/null > crates/bench/tests/expected_fuzz_pr_tier.txt"
    exit 1
fi
# Triage smoke: a sampled run with --findings-out must produce bundles.
target/release/paracrash fuzz --sample 25 --fs BeeGFS \
    --findings-out "$tmp/fuzz-findings" > /dev/null 2>&1
if ! ls "$tmp/fuzz-findings"/*.repro > /dev/null 2>&1; then
    echo "FAIL: fuzz --findings-out produced no .repro bundles"
    exit 1
fi
if [ "${PC_FUZZ_NIGHTLY:-0}" = "1" ]; then
    echo "-- nightly tier: bound-3 sampled sweep, all FSs, all modes --"
    nightly="--bound 3 --sample 400 --seed 42 --fs all --modes all"
    # shellcheck disable=SC2086
    target/release/paracrash fuzz $nightly > "$tmp/fuzz-nightly-a.txt" 2> /dev/null
    # shellcheck disable=SC2086
    PC_THREADS=1 target/release/paracrash fuzz $nightly > "$tmp/fuzz-nightly-b.txt" 2> /dev/null
    diff "$tmp/fuzz-nightly-a.txt" "$tmp/fuzz-nightly-b.txt"
fi

echo "== gate 9: rustdoc builds warning-free =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace > /dev/null

echo "== gate 10: every CLI flag is documented in README.md =="
# usage() prints to stderr and exits 2; that's the source of truth.
target/release/paracrash --help 2> "$tmp/help.txt" || true
for flag in $(grep -oE -- '--[a-z-]+' "$tmp/help.txt" | sort -u); do
    if ! grep -q -- "$flag" README.md; then
        echo "FAIL: CLI flag $flag is missing from README.md's flag table"
        exit 1
    fi
done
# The profiling and engine env knobs ride the same contract as the flags.
for env_var in PC_PROFILE PC_PROF_HZ PC_ENGINE; do
    if ! grep -q -- "$env_var" README.md; then
        echo "FAIL: env var $env_var is missing from README.md"
        exit 1
    fi
done

echo "== gate 11: extreme-scale smoke + committed scale benchmarks =="
# 64-server BeeGFS cell (4x the paper's largest configuration): the
# report must not depend on the thread count or on which engine
# produced it. BeeGFS/ARVR finds bugs, so the cells exit 1 by design.
cat > "$tmp/scale.conf" <<'EOF'
meta_servers = 32
storage_servers = 32
EOF
scale_cell="--fs BeeGFS --program ARVR --config $tmp/scale.conf"
# shellcheck disable=SC2086
target/release/paracrash $scale_cell > "$tmp/scale-par.txt" || [ $? -eq 1 ]
# shellcheck disable=SC2086
PC_THREADS=1 target/release/paracrash $scale_cell > "$tmp/scale-seq.txt" || [ $? -eq 1 ]
diff "$tmp/scale-par.txt" "$tmp/scale-seq.txt"
# shellcheck disable=SC2086
PC_ENGINE=reference target/release/paracrash $scale_cell > "$tmp/scale-ref.txt" || [ $? -eq 1 ]
diff "$tmp/scale-par.txt" "$tmp/scale-ref.txt"
# The zero-fault matrix must still find exactly the fifteen Table 3
# bugs under the reference engine, byte-identically to gate 6's run.
PC_ENGINE=reference target/release/table3 > "$tmp/table3-ref.txt"
ref_reproduced=$(grep -c "REPRODUCED" "$tmp/table3-ref.txt")
if [ "$ref_reproduced" -ne 15 ] || grep -q "missing" "$tmp/table3-ref.txt"; then
    echo "FAIL: reference-engine matrix does not reproduce the 15 Table 3 bugs"
    grep -E "REPRODUCED|missing" "$tmp/table3-ref.txt"
    exit 1
fi
diff "$tmp/table3.txt" "$tmp/table3-ref.txt"
# The PR-tier sweep collects representative-state digests, so this is
# the run that takes the reference engine's string-walk digest end to
# end; it must print the pinned corpus.
PC_ENGINE=reference target/release/paracrash fuzz > "$tmp/fuzz-ref.txt" 2> /dev/null
diff "$tmp/fuzz-ref.txt" crates/bench/tests/expected_fuzz_pr_tier.txt
# Committed scale numbers: static invariants plus a live re-measurement
# of the batched engine within a generous 2x regression band.
target/release/scale-check BENCH_scale.json --live

echo "== gate 12: event stream + campaign dashboard =="
# The streamed PR-tier run must print the same pinned report (the
# recorder observes the fold, never perturbs it) and leave a parseable
# JSON-lines stream behind.
target/release/paracrash fuzz --events-out "$tmp/events-par.jsonl" \
    > "$tmp/fuzz-ev-par.txt" 2> /dev/null
diff "$tmp/fuzz-ev-par.txt" crates/bench/tests/expected_fuzz_pr_tier.txt
target/release/events-check "$tmp/events-par.jsonl"
# Sequential vs parallel: raw streams differ (timestamps, interleaving);
# the canonical projection must not.
PC_THREADS=1 target/release/paracrash fuzz --events-out "$tmp/events-seq.jsonl" \
    > /dev/null 2> /dev/null
target/release/events-check --canonical-diff \
    "$tmp/events-par.jsonl" "$tmp/events-seq.jsonl"
# Render the dashboard from the stream plus a telemetry snapshot and the
# committed bench suites, then lint it.
target/release/paracrash --fs ext4 --program ARVR \
    --telemetry-out "$tmp/report-telemetry.json" > /dev/null
target/release/paracrash report --events "$tmp/events-par.jsonl" \
    --telemetry "$tmp/report-telemetry.json" \
    --bench BENCH_fuzz.json --bench BENCH_scale.json \
    --out "$tmp/report.html"
target/release/events-check --html "$tmp/report.html"
target/release/stream-overhead

echo "== gate 13: crash-safe resumable campaign =="
# Torn-tail recovery fuzz on the durable record log itself.
target/release/durable-check
# Reference: one uninterrupted small campaign.
camp="campaign --sample 25 --fs BeeGFS --checkpoint-every 8"
# shellcheck disable=SC2086
target/release/paracrash $camp --state-dir "$tmp/camp-ref" \
    > "$tmp/camp-ref.txt" 2> /dev/null
# Existing state without --resume must refuse with exit 2, not clobber.
# shellcheck disable=SC2086
if target/release/paracrash $camp --state-dir "$tmp/camp-ref" \
    > /dev/null 2>&1; then
    echo "FAIL: campaign clobbered existing state without --resume"
    exit 1
fi
# Injected kill mid-append with a torn partial record (exit mode looks
# like SIGKILL: rc 137), then resume; the report must be byte-identical.
# shellcheck disable=SC2086
PC_DURABLE_CRASH=at=7,tear=5 target/release/paracrash $camp \
    --state-dir "$tmp/camp-torn" > /dev/null 2>&1 && {
    echo "FAIL: injected crash did not kill the campaign"; exit 1; }
# shellcheck disable=SC2086
target/release/paracrash $camp --state-dir "$tmp/camp-torn" --resume \
    > "$tmp/camp-torn.txt" 2> /dev/null
diff "$tmp/camp-ref.txt" "$tmp/camp-torn.txt"
# Injected kill mid-checkpoint: point 12 is the first checkpoint's
# pre-rename window (tmp fully written, rename never happened — the
# old checkpoint must win).
# shellcheck disable=SC2086
PC_DURABLE_CRASH=at=12 target/release/paracrash $camp \
    --state-dir "$tmp/camp-ckpt" > /dev/null 2>&1 && {
    echo "FAIL: mid-checkpoint crash did not kill the campaign"; exit 1; }
# Resume sequentially: recovery + the re-checked tail must also be
# thread-count invariant.
# shellcheck disable=SC2086
PC_THREADS=1 target/release/paracrash $camp --state-dir "$tmp/camp-ckpt" \
    --resume > "$tmp/camp-ckpt.txt" 2> /dev/null
diff "$tmp/camp-ref.txt" "$tmp/camp-ckpt.txt"
# A real SIGKILL mid-sweep (no injection). If the campaign wins the
# race and finishes, resume degrades to a pure replay — still diffed.
# shellcheck disable=SC2086
target/release/paracrash $camp --state-dir "$tmp/camp-kill" \
    > /dev/null 2>&1 & camp_pid=$!
sleep 0.4
kill -9 "$camp_pid" 2> /dev/null || true
wait "$camp_pid" 2> /dev/null || true
# shellcheck disable=SC2086
target/release/paracrash $camp --state-dir "$tmp/camp-kill" --resume \
    > "$tmp/camp-kill.txt" 2> /dev/null
diff "$tmp/camp-ref.txt" "$tmp/camp-kill.txt"
# Satellite: --events-out under a campaign creates missing parent dirs
# and the stream re-parses (campaign.* counters ride the same stream).
# shellcheck disable=SC2086
target/release/paracrash $camp --state-dir "$tmp/camp-ev" \
    --events-out "$tmp/nested/dirs/camp-events.jsonl" \
    > /dev/null 2> /dev/null
target/release/events-check "$tmp/nested/dirs/camp-events.jsonl"

echo "== gate 14: self-profiling plane =="
# Disabled-path budget: every profiling site must reduce to one
# relaxed atomic load (span hooks and the counting allocator alike).
target/release/prof-overhead
# A profiled PR-tier fuzz run must still print the pinned report (the
# profiler is strictly presentation-plane) and emit a canonical
# .folded profile whose frames cover the engine's hot stages. The
# nested output path also exercises --profile-out's parent creation.
PC_PROF_HZ=997 target/release/paracrash fuzz \
    --profile-out "$tmp/prof/fuzz.folded" \
    > "$tmp/fuzz-prof.txt" 2> /dev/null
diff "$tmp/fuzz-prof.txt" crates/bench/tests/expected_fuzz_pr_tier.txt
target/release/prof-check "$tmp/prof/fuzz.folded"
for frame in "snapshot.materialize" "recover/"; do
    if ! grep -q -- "$frame" "$tmp/prof/fuzz.folded"; then
        echo "FAIL: profile has no $frame frames"
        exit 1
    fi
done
# Durable run history: two recorded runs round-trip through
# show / diff / regressions (the generous band only flags a genuine
# catastrophe, not machine noise).
target/release/paracrash fuzz --history-dir "$tmp/hist" > /dev/null 2>&1
target/release/paracrash fuzz --history-dir "$tmp/hist" > /dev/null 2>&1
runs=$(target/release/paracrash history show --history-dir "$tmp/hist" \
    | grep -c "fuzz")
if [ "$runs" -ne 2 ]; then
    echo "FAIL: history show lists $runs run(s), expected 2"
    exit 1
fi
target/release/paracrash history diff --history-dir "$tmp/hist" --band 4
target/release/paracrash history regressions --history-dir "$tmp/hist" --band 4
# Committed profiling benchmarks re-validate.
target/release/prof-check --bench BENCH_profiling.json
# The dashboard folds the profile in: flame + alloc sections render
# and the HTML lint still passes (gate 12's stream + telemetry
# snapshot are re-used).
target/release/paracrash report --events "$tmp/events-par.jsonl" \
    --telemetry "$tmp/report-telemetry.json" \
    --profile "$tmp/prof/fuzz.folded" \
    --out "$tmp/report-prof.html"
target/release/events-check --html "$tmp/report-prof.html"
for metric in "flame" "flame-table" "alloc-table"; do
    if ! grep -q "data-metric=\"$metric\"" "$tmp/report-prof.html"; then
        echo "FAIL: dashboard missing $metric section"
        exit 1
    fi
done

echo "verify: OK"
