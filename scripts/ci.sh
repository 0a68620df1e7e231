#!/usr/bin/env bash
# One-command CI gate. Everything runs --offline: the workspace has no
# external dependencies and must keep building from a cold registry.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Docs build clean: a broken intra-doc link (say, to an entry point
# that was deleted or made private) fails CI instead of rotting.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
run cargo build --offline --workspace --all-targets
# Debug tests run with the invariant oracle enabled (CheckMode::Auto
# is on under debug_assertions), so every test is also a conservation,
# span-sum, linear-limit, degraded-safety, and liveness check.
run cargo test --offline --workspace
# The trace parser's fast path ships in release builds (lapsim,
# perfbench), where overflow checks are off: run its tests, the
# differential fuzz among them, there too. The same holds for the disk
# layout and station arithmetic (an oversized extent once wrapped
# silently in release), so devmodel's and simkit's tests run there too,
# and for the latency histogram's nanosecond total and the simulator's
# extent bound, so lapobs's and lap-core's, and for the retry
# surcharge a faulted disk adds to each dispatch, so faultkit's.
run cargo test --release --offline -p ioworkload -p devmodel -p simkit -p lapobs -p lap-core -p faultkit

# The benchmark is a package of its own (perfbench/, outside the
# workspace) that calls public APIs of the crates. Build and test it
# here, so an API change that breaks it fails CI rather than only the
# benchmark run. Its own target directory keeps its release build
# apart from the workspace's.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

# Experiment-harness smoke: table1 + the devmodel, extent, faults,
# predictors and zoo ablations at small scale (the ids marked for
# --smoke in the binary's id table). Catches panics and degenerate
# results the unit tests can't — the binary asserts every cell is
# finite and did real work, the extent ablation asserts block==extent
# for every degenerate row (extent_blocks=1 or non-aggressive
# algorithm), the faults ablation runs all seven paper configurations
# under four fault plans (none, light, heavy, wipe), asserting no
# demand read is lost or double-counted, that the aggressive walkers
# stand down during error bursts and that the wipe plan degrades a
# node, the predictors ablation runs the registry grid,
# asserting NP covers nothing and the MITHRIL miner always mines and
# (in at least one aggressive cell) covers reads, and the zoo ablation
# runs the workload-zoo grid, asserting a history-replay predictor
# covers reads on at least one overflow workload. Also
# regenerates the benchmark snapshot for the staleness gate below,
# which doubles as two bit-identity gates: block-granularity (BENCH.json
# predates the extent machinery) and zero-fault (it predates the fault
# layer too — a plan-less run must stay byte-identical, and the golden
# freshness gate at the bottom pins tests/golden/tiny_trace.json the
# same way).
run ./target/debug/experiments --smoke --bench-out target/BENCH.json

# Chaos smoke (DESIGN.md §15): 256 seeded random fault plans, each run
# once on both cache systems with the invariant oracle forced on,
# asserting zero violations. Always small scale; 256 plans (512
# simulations) keep this inside the smoke time budget (the full
# 2000-plan sweep is `experiments chaos`).
run ./target/debug/experiments chaos --plans 256

# Benchmark-snapshot staleness: the committed BENCH.json (schema 3)
# must match what the tree produces, field by field and exactly as
# printed. This is also the deterministic-cost gate: the simulated
# results, the self-profile counters (events, pushes, depth,
# dispatches, predictor ops, cache probes) and their ratios all
# compare exactly, and bench-diff names every field that drifted.
# BENCH.json holds no host time, so there is nothing that only warns;
# host speed is perfbench's job, bounded by BENCHMARK.json.
# Regenerate with:
#   ./target/debug/experiments --smoke --bench-out BENCH.json
run ./target/debug/lapreport bench-diff BENCH.json target/BENCH.json

# The perf table itself must render (hard-fails on a scenario without
# a perf section, i.e. a schema-1 snapshot sneaking back in), and a
# profiled run must work end to end from the CLI.
run ./target/debug/lapreport perf target/BENCH.json
run ./target/debug/lapsim --workload charisma --cache-mb 4 --profile

# Allocation gate: with the counting allocator compiled in, the event
# loop must stay allocation-free enough that a simulated read costs a
# single-digit number of heap allocations (docs/PERFORMANCE.md). The
# scratch-buffer reuse in the engines is what keeps this low; a
# regression here means a hot path started allocating per event. Each
# gate is SYSTEM:CACHE_MB:CEILING. The PAFS ceiling (10) is ~6x the
# current 1.7 allocs/read — loose enough for honest growth, tight
# enough to catch a per-event Vec reappearing. xFS at 4 MB gets its
# own, tighter ceiling (2.5, current 1.4): its holder sets and
# forwarding draws are node masks, and a per-forward or per-holder Vec
# coming back would push it past 2.5. xFS at 1 MB floods its caches, so
# every read evicts and forwards; it reads 5.1 today (the returned
# eviction Vecs), ceiling 6.
run cargo build --offline --features count-alloc --bin lapsim
for gate in pafs:4:10 xfs:4:2.5 xfs:1:6; do
    system="${gate%%:*}"
    ceiling="${gate##*:}"
    mb="${gate#*:}"
    mb="${mb%%:*}"
    echo "==> count-alloc ceiling ($system, $mb MB)"
    apr="$(./target/debug/lapsim --workload charisma --scale small --system "$system" \
        --cache-mb "$mb" --algo ln_agr_is_ppm:1 --profile 2>/dev/null \
        | sed -n 's/.*(\([0-9.]*\) per read, count-alloc).*/\1/p')"
    if [ -z "$apr" ]; then
        echo "count-alloc gate: no allocations line in lapsim --profile output ($system, $mb MB)" >&2
        exit 1
    fi
    echo "    allocs per read: $apr (ceiling $ceiling)"
    if ! awk -v a="$apr" -v c="$ceiling" 'BEGIN { exit !(a <= c) }'; then
        echo "count-alloc gate: $system at $mb MB: $apr allocs per simulated read exceeds the ceiling of $ceiling" >&2
        exit 1
    fi
done
# Rebuild without the feature so later gates exercise the default
# allocator (and the feature never leaks into the other binaries).
run cargo build --offline --bin lapsim

# Parallel-sweep determinism: the worker pool must not leak scheduling
# into results — a 1-worker and an 8-worker run of the same ablations
# must be byte-identical, on stdout and in every CSV (bench::par_map
# writes results by job index; every ablation sweeps through it).
echo "==> sweep worker byte-diff (1 vs 8 workers)"
rm -rf target/ci_sweep_w1 target/ci_sweep_w8
for w in 1 8; do
    mkdir -p target/ci_sweep_w$w
    ./target/debug/experiments devmodel extent ablations faults predictors \
        --scale small --workers $w --out target/ci_sweep_w$w \
        | sed "s#target/ci_sweep_w$w#OUT#" > target/ci_sweep_w$w/stdout.txt
done
run diff -r target/ci_sweep_w1 target/ci_sweep_w8

# Artifact round-trip: simulate with tracing + metrics on, then make
# lapreport digest both. Exercises the span accounting end to end —
# lapreport exits non-zero if the breakdown stops summing to the mean
# read time or a metric key disappears (schema drift).
run ./target/debug/lapsim --workload charisma --system pafs --algo ln_agr_is_ppm:1 \
    --cache-mb 4 --trace-out target/ci_trace.json --metrics-out target/ci_metrics.csv
run ./target/debug/lapsim --workload sprite --system xfs --algo oba \
    --cache-mb 2 --trace-sample 8 --trace-out target/ci_trace_sampled.json \
    --metrics-out target/ci_metrics_sprite.csv
run ./target/debug/lapreport metrics target/ci_metrics.csv target/ci_metrics_sprite.csv
echo "==> lapreport metrics --json"
./target/debug/lapreport metrics target/ci_metrics.csv --json > target/ci_report.json
run ./target/debug/lapreport trace target/ci_trace.json
run ./target/debug/lapreport trace target/ci_trace_sampled.json

# Workload-zoo round trip: a registry spec flows through lapgen to a
# trace file and back through lapsim, and the strace front-end ingests
# the committed fixture end to end (parse -> replay). The fixture's
# parse output itself is pinned by tests/golden/strace_small.trace and
# the golden-freshness gate below.
run ./target/debug/lapgen web:8,0.8,64 --seed 7 -o target/ci_web.trace
run ./target/debug/lapsim --trace target/ci_web.trace --machine now --cache-mb 1
run ./target/debug/lapsim --workload strace:tests/golden/strace_small.txt \
    --machine now --cache-mb 1
run ./target/debug/experiments mithril-sweep --workload mltrain:2,256 --seed 42

# Doc-flag drift: every `--flag` a doc references must be printed,
# as a whole flag, by one of the tools' --help (or belong to the
# cargo/git whitelist). Catches docs that advertise a renamed or
# removed CLI flag; `cargo bench --bench` is not whitelisted because
# the workspace has no bench targets.
echo "==> doc-flag drift (DESIGN.md EXPERIMENTS.md README.md docs/CALIBRATION.md docs/PERFORMANCE.md)"
helps="$(./target/debug/lapsim --help 2>&1 || true)
$(./target/debug/experiments --help 2>&1 || true)
$(./target/debug/lapreport --help 2>&1 || true)
$(./target/debug/lapgen --help 2>&1 || true)"
known_other="--release --offline --workspace --all-targets --all --check --exit-code --bin --example --test --nocapture --features"
drift=0
for f in $(grep -ohE -- '--[a-z][a-z-]+' DESIGN.md EXPERIMENTS.md README.md docs/CALIBRATION.md docs/PERFORMANCE.md | sort -u); do
    case " $known_other " in *" $f "*) continue ;; esac
    if ! printf '%s' "$helps" | grep -qE -- "$f([^a-z-]|\$)"; then
        echo "doc-flag drift: $f is referenced in the docs but no tool's --help prints it" >&2
        drift=1
    fi
done
[ "$drift" -eq 0 ] || exit 1

# Doc-subcommand drift, same idea for `lapreport X`: every subcommand
# the docs mention must appear in lapreport's usage text.
echo "==> lapreport-subcommand drift"
lapreport_usage="$(./target/debug/lapreport --help 2>&1 || true)"
for sub in $(grep -ohE 'lapreport [a-z][a-z-]+' DESIGN.md EXPERIMENTS.md README.md docs/CALIBRATION.md docs/PERFORMANCE.md | awk '{print $2}' | sort -u); do
    if ! printf '%s' "$lapreport_usage" | grep -qE "lapreport $sub\b"; then
        echo "doc drift: docs reference 'lapreport $sub' but usage doesn't list it" >&2
        drift=1
    fi
done
[ "$drift" -eq 0 ] || exit 1

# Golden-trace freshness: the test suite passes when golden files match,
# but a stale tree (someone regenerated with UPDATE_GOLDEN and forgot to
# commit, or edited a golden by hand) must not slip through.
echo "==> golden-trace freshness"
if ! git diff --exit-code -- tests/golden; then
    echo "tests/golden is dirty — commit the regenerated files" >&2
    exit 1
fi

echo "==> ci: all green"
