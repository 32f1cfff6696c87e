# Development tasks. Run `just` for the default check pipeline.
# The workspace builds fully offline: external deps are vendored shims.

default: ci

# Everything CI runs, in order.
ci: build test fmt clippy bench-quick perfbench-oracles

build:
    cargo build --workspace --release --offline

test:
    cargo test --workspace --offline -q

# Pervasive seed-style lints are allowed wholesale; everything else is denied.
clippy:
    cargo clippy --workspace --all-targets --offline -- -D warnings \
        -A clippy::needless_range_loop \
        -A clippy::too_many_arguments \
        -A clippy::should_implement_trait

fmt:
    cargo fmt --all --check

# Regenerate every paper artifact, writing BENCH_<id>.json files to out/.
experiments:
    cargo run --release --offline -p bench --bin experiments -- all --bench-dir out

# The §4.10.1 oversubscription cliff, with UM migrations on the copy engines.
um-smoke:
    cargo run --release --offline -p bench --bin experiments -- um-oversubscription --json --timeline --bench-dir out

# The collectives sweep: flat vs hierarchical vs overlapped allreduce, with
# per-rank NIC injection tracks on the timeline.
net-smoke:
    cargo run --release --offline -p bench --bin experiments -- collective-overlap --json --timeline --bench-dir out

# The auto-tuner rediscovering the paper's crossovers (pipeline chunks,
# hierarchical allreduce at 64 nodes, the UM knee) from the cost model.
tune-smoke:
    cargo run --release --offline -p bench --bin experiments -- auto-tune --json --bench-dir out

# The portability matrix: the registry across every MATRIX machine preset
# (machine-sensitive experiments re-run per column, the rest reuse their
# sierra cells), then the classified Sierra-specific vs
# architecture-invariant conclusions.
matrix-smoke:
    cargo run --release --offline -p bench --bin experiments -- matrix --jobs 4
    cargo run --release --offline -p bench --bin experiments -- portability-matrix --json --bench-dir out

# Rewrite tests/golden/ after an *intentional* output change, then show
# what moved. Committed goldens are the conformance contract in CI.
golden-update:
    UPDATE_GOLDEN=1 cargo test --offline -p xtests --test golden_determinism
    git diff --stat tests/golden

# The fleet-serving layer: spike survival + policy shoot-out, with the
# SLA/joules gauges and the `cluster` timeline track.
cluster-smoke:
    cargo run --release --offline -p bench --bin experiments -- cluster-spike --json --timeline --bench-dir out
    cargo run --release --offline -p bench --bin experiments -- cluster-policies --json --timeline --bench-dir out

bench:
    cargo bench --workspace --offline

# CI's bench steps: every bench compiles, then the cluster and des benches
# run quick and assert the release-only bars (the serving loop's < 0.01
# allocs/event, >= 100k placed jobs/s, >= 100k simulated ranks/s).
bench-quick:
    cargo bench --workspace --offline --no-run
    ICOE_BENCH_QUICK=1 cargo bench --offline -p bench --bench cluster --bench des

# CI's repository-benchmark steps: perfbench's self-tests, then one short
# run per workload, each pass checked by the workload's oracle.
perfbench-oracles:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    mkdir -p out
    for w in fleet-steady fleet-burst node-step; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seconds 1 > "out/perfbench-$w.txt"
        tail -n 1 "out/perfbench-$w.txt"
        tail -n 1 "out/perfbench-$w.txt" | grep -q '"correct": true,'
        tail -n 1 "out/perfbench-$w.txt" | grep -q '"failed": 0,'
    done

# Observability hot-path + parallel-engine benches only (quick mode).
bench-recorder:
    ICOE_BENCH_QUICK=1 cargo bench --offline -p bench --bench recorder

# The incremental cluster-serving loop: the criterion sweep (jobs x fleet
# x policy), the 1M-job FCFS acceptance probe (asserting >= 100k placed
# jobs/s) and the steady-state allocation audit, then the registered
# throughput experiment with its wall-clock jobs-per-second on stderr.
cluster-bench:
    cargo bench --offline -p bench --bench cluster
    cargo run --release --offline -p bench --bin experiments -- cluster-throughput --json --bench-dir out > /dev/null

# The unified des kernel's scale probe: deterministic simulated metrics in
# the document, wall-clock ranks-per-host-second on stderr, plus the
# criterion rank sweep to 1M ranks (its probe asserts >= 100k ranks/s).
des-smoke:
    cargo run --release --offline -p bench --bin experiments -- rank-throughput --json --bench-dir out > /dev/null
    cargo bench --offline -p bench --bench des

# A/B the repository benchmark the way a performance claim is judged:
# build `perfbench` at <base_ref> (exported with `git archive`) and at the
# working tree, run <pairs> pairs of <workload> runs for BENCHMARK.json's
# `run_seconds`, alternating which side goes first, then print
# `perfbench compare`. A working tree with uncommitted changes runs from a
# snapshot of its tracked and untracked-unignored files, so its runs
# stamp a source digest (`src-...`) instead of the commit they are not.
# Extra arguments (e.g. `--seed 97`) go to every run; the run outputs
# are kept in out/perf-pairs/<workload>/. A space-separated list of
# workloads runs each in turn on one base build.
#   just perf-pairs HEAD~1 fleet-burst
perf-pairs base_ref workload pairs="10" *args:
    #!/usr/bin/env bash
    set -euo pipefail
    secs=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
    base=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs.XXXXXX")
    head=.
    trap 'rm -rf "$base"; if [ "$head" != . ]; then rm -rf "$head"; fi' EXIT
    git archive "{{base_ref}}" | tar -x -C "$base"
    CARGO_TARGET_DIR="$base/target" cargo build --release --quiet --offline \
        --manifest-path "$base/perfbench/Cargo.toml"
    head_bin=perfbench/target/release/perfbench
    if [ -n "$(git status --porcelain)" ]; then
        head=$(mktemp -d "${TMPDIR:-/tmp}/perf-pairs-head.XXXXXX")
        # Files deleted in the tree are still listed; tar skips them.
        git ls-files -z --cached --others --exclude-standard \
            | tar --null --ignore-failed-read -T - -c | tar -x -C "$head"
        CARGO_TARGET_DIR="$head/target" cargo build --release --quiet --offline \
            --manifest-path "$head/perfbench/Cargo.toml"
        head_bin=target/release/perfbench
    else
        cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
    fi
    # Each side runs from its own tree, where it stamps its fingerprint.
    run() {
        local dir=$head bin=$head_bin
        if [ "$1" = base ]; then dir=$base bin=target/release/perfbench; fi
        (cd "$dir" && "$bin" --workload "$workload" --seconds "$secs" {{args}}) \
            > "$runs/$1-$2.txt"
    }
    for workload in {{workload}}; do
        runs="out/perf-pairs/$workload"
        rm -rf "$runs" && mkdir -p "$runs"
        for i in $(seq 1 {{pairs}}); do
            if [ $((i % 2)) = 1 ]; then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
            echo "$workload: pair $i of {{pairs}} done" >&2
        done
        echo "== $workload"
        "$head/$head_bin" compare --base "$runs"/base-*.txt --head "$runs"/head-*.txt
    done

# `perf-pairs` over every workload BENCHMARK.json declares, against one
# base build: a claim is judged on all of them, since a regression on any
# workload rejects it.
#   just perf-pairs-all HEAD~1 10 --seed 97
perf-pairs-all base_ref pairs="10" *args:
    just perf-pairs "{{base_ref}}" \
        "$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json | tr '\n' ' ')" \
        "{{pairs}}" {{args}}
