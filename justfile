# Project task runner. `just <recipe>`; plain `just` lists recipes.

default:
    @just --list

# Tier-1 verification: the build-and-test gate every change must pass.
verify:
    cargo build --release
    cargo test -q
    cargo test --workspace -q
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Lint gate: clippy across every target, warnings are errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Formatting gate.
fmt-check:
    cargo fmt --all -- --check

fmt:
    cargo fmt --all

# All gates in one go.
check: fmt-check clippy verify

# The perf-regression harness: writes BENCH_hotpath, BENCH_experiment,
# BENCH_policy, BENCH_telemetry, BENCH_parallel, BENCH_server and
# BENCH_storage (.json) and exits nonzero when a gate fails.
bench-report:
    cargo run --release -p pgc-bench --bin perf_report

# Tap the headline comparison for telemetry: writes one JSONL line per
# collector activation (schema pgc-telemetry/v1) to telemetry.jsonl and
# prints the per-policy telemetry summary table. Scaled down by default;
# pass scale=100 for the full paper workload.
telemetry out="telemetry.jsonl" scale="25" seeds="3":
    cargo run --release -p pgc-bench --bin table2_throughput -- \
        --seeds {{seeds}} --scale {{scale}} --telemetry-out {{out}}

# Dependency-free micro-benchmarks (PGC_BENCH_QUICK=1 for a fast pass).
bench:
    cargo bench -p pgc-bench

# Intra-run parallelism: the parallel_hotpath section of the perf report
# (BENCH_parallel.json — batched decode + parallel-marking speedups and the
# Serial == Deterministic(n) bit-identity check) plus the mode-invariance
# test suite. `threads` sets --intra-threads.
parallel threads="4":
    cargo test -q -p pgc-sim --test parallel_equivalence
    cargo run --release -p pgc-bench --bin perf_report -- --intra-threads {{threads}}

# The sharded multi-tenant server: run the client_server driver on a
# fleet of `shards` shard worker threads hosting `streams` client
# streams (per-shard telemetry, aggregate events/sec, inter-shard
# remset counters, and a stream-0 fidelity check against a dedicated
# single-Simulation run). Scaled down by default; pass scale=100 for
# full paper-size tenants.
serve shards="4" streams="8" scale="25":
    cargo run --release -p pgc-bench --bin client_server -- \
        --shards {{shards}} --streams {{streams}} --scale {{scale}}

# Crash-recovery smoke: a clean durable run recovered with a pinned
# digest, then a mid-run kill (no final snapshot, buffered log tail
# dropped) recovered from whatever reached disk. Exercises the same
# tooling the CI smoke job runs; scratch dirs live under target/ and are
# removed afterwards.
recover:
    rm -rf target/recover-smoke
    cargo build --release -p pgc-bench --bin recover_tool
    d=$(./target/release/recover_tool run target/recover-smoke/clean updated-pointer 1 | awk '/^run:/ {print $NF}'); \
        ./target/release/recover_tool recover target/recover-smoke/clean --expect $d
    ./target/release/recover_tool crash target/recover-smoke/killed 5000 most-garbage 2
    ./target/release/recover_tool recover target/recover-smoke/killed
    rm -rf target/recover-smoke
