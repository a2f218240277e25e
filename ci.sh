#!/usr/bin/env bash
# Repository CI: build, test, lint, bench report + trace-analysis smoke.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run_twice_cmp NAME CMD [ARGS...] — the determinism gate shared by
# every byte-identical-replay check below. Runs CMD twice, substituting
# the literal argv token OUT with "$tmp/NAME" on the first run and
# "$tmp/NAME.rerun" on the second, and requires both the artifact pair
# and the captured stdout pair to match byte-for-byte (a tool that
# echoes its output path gets it normalized back to OUT first). Stderr
# lands in "$tmp/NAME.stderr" for later greps (not compared — cargo may
# chat there). Commands without an OUT token compare stdout only.
run_twice_cmp() {
    local name="$1"; shift
    local a="$tmp/$name" b="$tmp/$name.rerun"
    "${@/OUT/$a}" > "$a.stdout.raw" 2> "$a.stderr"
    "${@/OUT/$b}" > "$b.stdout.raw" 2> "$b.stderr"
    [ ! -e "$a" ] || cmp "$a" "$b"
    sed "s|$b|OUT|g; s|$a|OUT|g" "$a.stdout.raw" > "$a.stdout"
    sed "s|$b|OUT|g; s|$a|OUT|g" "$b.stdout.raw" > "$b.stdout"
    cmp "$a.stdout" "$b.stdout"
}

# expect_exit CODE NAME CMD [ARGS...] — the exit-code gate: runs CMD
# once with stdout in "$tmp/NAME" and stderr in "$tmp/NAME.stderr",
# and requires exactly exit status CODE.
expect_exit() {
    local want="$1" out="$tmp/$2"; shift 2
    local rc=0
    "$@" > "$out" 2> "$out.stderr" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ci: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

# Bench report: run the OMB matrix + traced workload, write the
# machine-readable report at the repo root, and prove determinism by
# re-running and comparing byte-for-byte.
cargo run --release -q -p omb --bin bench_omb BENCH_omb.json "$tmp/trace.json" "$tmp/sweep.json"
run_twice_cmp BENCH.json cargo run --release -q -p omb --bin bench_omb OUT
cmp BENCH_omb.json "$tmp/BENCH.json"

# Figure determinism gate: the application harnesses (64-PE Stencil2D
# and LBM sweeps) must print byte-identical tables on two runs — PE
# threads resume one at a time in wake order, so no figure may depend
# on OS thread scheduling.
run_twice_cmp fig11 env BENCH_FAST=1 cargo bench -q -p bench-gdr --bench fig11_stencil2d
run_twice_cmp fig12 env BENCH_FAST=1 cargo bench -q -p bench-gdr --bench fig12_lbm

# Simulator micro-benchmarks: one sample each, so the harness is run and
# not only compiled by clippy.
GDR_BENCH_ITERS=1 cargo bench -q -p bench-gdr --bench engine_micro

# gdrprof smoke: the traced workload must analyze to a nonzero critical
# path with the expected anchor lines.
out="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/trace.json" --json "$tmp/report.json")"
grep -Eq 'ops-analyzed: [1-9]' <<<"$out"
grep -q 'critical path' <<<"$out"
# the v2 report carries latency quantile sketches
grep -q 'latency quantiles' <<<"$out"
grep -q '"quantiles"' "$tmp/report.json"
grep -q '"p999_us"' "$tmp/report.json"
# a self-diff must report no regressions
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --threshold 5 >/dev/null
# ... and --json writes the machine-readable diff document
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/report.json" "$tmp/report.json" --json "$tmp/diff.json" >/dev/null
grep -q '"schema":"gdrprof-diff-v2"' "$tmp/diff.json"
# a report file of the retired v1 schema is rejected as malformed input
printf '%s' '{"schema":"gdrprof-report-v1","trace_span_us":100.0,"ops_analyzed":10,
  "flow":{"started":10,"matched":10,"linkage":1},"protocols":{},"decisions":{},
  "faults":{},"links":{},"ops":[]}' > "$tmp/v1.json"
expect_exit 2 v1.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/v1.json" "$tmp/report.json"
grep -q 'gdrprof-report-v1' "$tmp/v1.txt.stderr"

# Crossover profiler: the sweep trace must yield latency curves and at
# least one observed protocol switch per socket relation, each tagged
# with the governing threshold's provenance; the profile is
# deterministic (byte-identical across re-runs) and --suggest emits a
# loadable thresholds-v1 artifact.
run_twice_cmp x.json cargo run --release -q -p obs-analyze --bin gdrprof -- \
    crossover "$tmp/sweep.json" --json OUT --suggest "$tmp/suggest.json"
grep -q 'crossover .*/intra-socket:' "$tmp/x.json.stdout"
grep -q 'crossover .*/inter-socket:' "$tmp/x.json.stdout"
grep -q 'threshold gdr_put_limit=32768, builtin' "$tmp/x.json.stdout"
grep -q 'threshold proxy_get_min=524288, builtin' "$tmp/x.json.stdout"
grep -q '"schema":"thresholds-v1"' "$tmp/suggest.json"

# What-if replay: re-deciding every recorded protocol choice under the
# currently-tuned table must be a no-op (delta exactly zero), and the
# degraded fixture table (GDR get disabled, proxy floor collapsed)
# must predict a strictly positive latency delta.
wout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- whatif "$tmp/sweep.json" \
    --thresholds tests/golden/thresholds_current.json)"
grep -q 'decisions-changed: 0' <<<"$wout"
grep -q 'predicted-delta-us: +0.000' <<<"$wout"
dgout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- whatif "$tmp/sweep.json" \
    --thresholds tests/golden/thresholds_degraded.json)"
grep -Eq 'decisions-changed: [1-9]' <<<"$dgout"
grep -Eq 'predicted-delta-us: \+[0-9]' <<<"$dgout"
awk '/predicted-delta-us:/ { sub(/\+/, "", $2); exit !($2 > 0) }' <<<"$dgout"

# Link-contention gate: the fixture pair holds latencies flat while one
# link's contended fraction grows past the threshold — diff must trip
# with the contention-specific exit code 5, not the latency code 4.
expect_exit 5 cont.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_contention_base.json tests/golden/report_contention_regressed.json \
    --threshold 10
grep -q 'link-contention' "$tmp/cont.txt"
grep -q 'REGRESSED' "$tmp/cont.txt"

# and a malformed trace must fail with a nonzero exit code
printf '{"traceEvents":[' > "$tmp/bad.json"
if cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/bad.json" 2>/dev/null; then
    echo "gdrprof accepted a malformed trace" >&2
    exit 1
fi

# Chaos gate: the seeded fault-injection suite must hold on two fixed
# seed trajectories (each seed replays its faults deterministically).
GDR_CHAOS_SEED=7 cargo test --release -q --test chaos
GDR_CHAOS_SEED=11 cargo test --release -q --test chaos

# gdrprof over a faulted trace: the report must surface the injected
# faults, the retries they cost, and the capability-fault fallback.
cargo run --release -q -p omb --bin chaos_trace "$tmp/chaos.json"
cout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/chaos.json" --json "$tmp/chaos_rep.json")"
grep -q 'fault injection:' <<<"$cout"
grep -Eq 'retried [1-9]' <<<"$cout"
grep -Eq 'fallbacks [1-9]' <<<"$cout"
grep -q 'put/proxy-pipeline' <<<"$cout"
# a healthy run self-diffs clean, including the recovery-rate gate
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/chaos_rep.json" --threshold 5 >/dev/null

# Recovery-rate regression gate: a degraded run (retry budget starved)
# must trip `gdrprof diff` against the healthy report ...
cargo run --release -q -p omb --bin chaos_trace "$tmp/chaos_bad.json" --degraded
cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/chaos_bad.json" --json "$tmp/chaos_bad_rep.json" >/dev/null
if cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/chaos_bad_rep.json" --threshold 10 >/dev/null; then
    echo "gdrprof diff missed a recovery-rate regression" >&2
    exit 1
fi
# ... and the checked-in regression fixture must keep tripping it too,
# with the latency/fault exit code 4
expect_exit 4 recovery.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_recovery_base.json tests/golden/report_recovery_regressed.json \
    --threshold 10

# Chunk-recovery gate: the pipeline fault plan (large D-D put, chunk
# posts drawing from the CQE stream with a retry budget of one) must
# record chunk replays and a typed partial delivery in the trace, must
# replay byte-identically, and gdrprof must surface both.
run_twice_cmp pipe.json cargo run --release -q -p omb --bin chaos_trace OUT --pipeline
grep -q '"name":"chunk-retry"' "$tmp/pipe.json"
grep -q '"name":"partial-delivery"' "$tmp/pipe.json"
pout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/pipe.json" --json "$tmp/pipe_rep.json")"
grep -Eq 'chunk-retries [1-9]' <<<"$pout"
grep -Eq 'partial-deliveries [1-9]' <<<"$pout"
# the partial-delivery diff gate: a clean report against the partial one
# must trip, exit code 4 like every regression ...
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/chaos_rep.json" "$tmp/pipe_rep.json" --threshold 10 >/dev/null && {
    echo "gdrprof diff missed a partial-delivery regression" >&2
    exit 1
}
# ... and the fixture pair isolates that gate: identical latency and
# recovery rates, only the delivered-byte fraction fell
expect_exit 4 partial.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_partial_base.json tests/golden/report_partial_regressed.json \
    --threshold 10

# Burst-recovery gate: a correlated burst window with the health
# breaker armed must drive the full circuit lifecycle — demote on
# sustained failure, half-open probe after cooldown, promote on the
# probe's success — all visible as trace instants, with the trace
# replaying byte-identically under its seed ...
run_twice_cmp burst.json cargo run --release -q -p omb --bin chaos_trace OUT --burst
grep -q '"cqe-burst"' "$tmp/burst.json"
grep -q '"name":"demote"' "$tmp/burst.json"
grep -q '"name":"probe"' "$tmp/burst.json"
grep -q '"name":"promote"' "$tmp/burst.json"
# ... and in gdrprof's health section
bout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/burst.json" --json "$tmp/burst_rep.json")"
grep -q 'protocol health:' <<<"$bout"
grep -Eq 'demotes [1-9]' <<<"$bout"
grep -Eq 'promotes [1-9]' <<<"$bout"
# a completed lifecycle self-diffs clean, including the promote-rate gate
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/burst_rep.json" "$tmp/burst_rep.json" --threshold 5 >/dev/null
# the fixture pair isolates the promote-rate gate (a run whose breaker
# never re-promotes) and the stage-level attribution of a regressed
# mean (the rdma leg grew; the diff must say so)
expect_exit 4 health.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_health_base.json tests/golden/report_health_regressed.json \
    --threshold 10
grep -q 'promote-rate' "$tmp/health.txt"
grep -q 'stage rdma' "$tmp/health.txt"

# Timeline gate: the burst trace carries the windowed metrics plane —
# gdrprof timeline must align the fault burst with a change-point, fold
# in the demote -> probe -> promote lifecycle, and place the single SLO
# violation (the burst window's collapsed recovery rate) inside the
# burst and nowhere else. The timeline itself is deterministic.
run_twice_cmp tl.json cargo run --release -q -p obs-analyze --bin gdrprof -- \
    timeline "$tmp/burst.json" --json OUT
grep -q '"schema":"gdrprof-timeline-v1"' "$tmp/tl.json"
grep -q 'CHANGE-POINT' "$tmp/tl.json.stdout"
grep -q 'fault burst: windows 3..3, aligned with a p99/contention change-point' "$tmp/tl.json.stdout"
grep -q 'lifecycle direct-gdr: demote @w3' "$tmp/tl.json.stdout"
grep -q 'slo-violations: 1 in 1 windows (first w3, last w3)' "$tmp/tl.json.stdout"
grep -q '"name":"window-snapshot"' "$tmp/burst.json"
grep -q '"name":"slo-violation"' "$tmp/burst.json"

# SLO-violation-count gate: the fixture pair holds every latency and
# fault metric flat while the candidate's windowed plane breaches more
# budgets — diff must trip with the SLO-specific exit code 6.
expect_exit 6 slo.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_slo_base.json tests/golden/report_slo_regressed.json \
    --threshold 10
grep -q 'slo-violations' "$tmp/slo.txt"
grep -q 'REGRESSED' "$tmp/slo.txt"

# the bench report's analysis carries the timeline rollup, and the
# additive partitions rollup stays all-zero on an unfaulted run
grep -q '"timeline":{"windows":' BENCH_omb.json
grep -q '"partitions":{"partitions":0,"fences":0,"heals":0' BENCH_omb.json

# Campaign gate: a seeded fuzzing campaign over generated fault plans
# must complete with zero invariant violations, and two runs of the
# same seed must render byte-identical summaries. A second seed guards
# against a trajectory that happens to dodge the fault space.
run_twice_cmp camp7 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 200
grep -q '^violations: 0$' "$tmp/camp7.stdout"
cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 > "$tmp/camp11.txt"
grep -q '^violations: 0$' "$tmp/camp11.txt"

# Shrinker gate: the committed known-bad fixture plan must still
# violate (exit 3), and must shrink to exactly the committed minimal
# repro — the shrinker and the golden file move together.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --repro-out "$tmp/repro.txt" > "$tmp/fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/repro.txt" tests/golden/chaos_minimal_repro.txt
grep -q 'shrunk to' "$tmp/fixture.txt"

# ... and the minimal repro grammar replays byte-identically through
# chaos_trace --plan (the plan it ran under is echoed on stderr)
repro_grammar="$(grep -v '^#' "$tmp/repro.txt")"
run_twice_cmp replan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$repro_grammar"
grep -q 'chaos_trace: plan: seed=1 cqe=450 retries=1' "$tmp/replan.json.stderr"
grep -q '"name":"partial-delivery"' "$tmp/replan.json"

# Crash-campaign gate: with the crash dimension armed the fuzzing
# campaign must stay violation-free (the survivor-bytes and
# view-convergence oracles hold), exercise the full fail-stop
# lifecycle (pe-dead -> evict -> view-change -> rejoin, plus the
# rejoin path's half-open probe and promote), and replay
# byte-identically under its seed.
run_twice_cmp crash_camp cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 --crash
grep -q '^violations: 0$' "$tmp/crash_camp.stdout"
grep -q 'survivor-bytes' "$tmp/crash_camp.stdout"
grep -q 'view-convergence' "$tmp/crash_camp.stdout"
for what in pe-dead evict view-change rejoin; do
    grep -Eq "  $what/membership: [1-9]" "$tmp/crash_camp.stdout"
done
grep -Eq '  probe/host-rdma: [1-9]' "$tmp/crash_camp.stdout"
grep -Eq '  promote/host-rdma: [1-9]' "$tmp/crash_camp.stdout"

# Crash-shrinker gate: the crash fixture plan must violate (a survivor
# that never checks membership trips the no-peer-dead oracle) and
# shrink to exactly the committed minimal `crash=` repro.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --crash --repro-out "$tmp/crash_repro.txt" > "$tmp/crash_fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture --crash: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/crash_repro.txt" tests/golden/chaos_crash_minimal_repro.txt
grep -q 'shrunk to "seed=1 crash=1:20000:1200000"' "$tmp/crash_fixture.txt"
# ... and the minimal crash repro replays byte-identically through
# chaos_trace --plan, landing the fail-stop instant on the trace
crash_grammar="$(grep -v '^#' "$tmp/crash_repro.txt")"
run_twice_cmp crashplan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$crash_grammar"
grep -q '"name":"pe-dead"' "$tmp/crashplan.json"

# Membership gate: the crash trace carries the full lifecycle as
# instants, gdrprof folds them into the membership section with the
# view-convergence-time metric at exactly the detection bound, and the
# trace replays byte-identically.
run_twice_cmp crash.json cargo run --release -q -p omb --bin chaos_trace OUT --crash
for name in pe-dead evict view-change rejoin probe promote; do
    grep -q "\"name\":\"$name\"" "$tmp/crash.json"
done
mout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/crash.json" --json "$tmp/crash_rep.json")"
grep -q 'membership:' <<<"$mout"
grep -Eq 'pe-dead 1 +evicts 1 +view-changes 1 +rejoins 1' <<<"$mout"
grep -q 'view-convergence 150.000us' <<<"$mout"
grep -q '"membership":{"pe_dead":1' "$tmp/crash_rep.json"
# a completed crash/rejoin lifecycle self-diffs clean
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/crash_rep.json" "$tmp/crash_rep.json" --threshold 5 >/dev/null

# Membership-regression gate: the fixture pair holds every latency and
# fault metric flat while the candidate converges its view slower and
# leaves an eviction without a rejoin — diff must trip with the
# membership-specific exit code 7.
expect_exit 7 member.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_membership_base.json tests/golden/report_membership_regressed.json \
    --threshold 10
grep -q 'membership (fail-stop view):' "$tmp/member.txt"
grep -q 'unrecovered' "$tmp/member.txt"
grep -q 'REGRESSED' "$tmp/member.txt"

# Partition-campaign gate: with the reachability dimension armed the
# campaign must stay violation-free (the split-brain, quorum-progress
# and heal-convergence oracles hold), exercise the quorum-fence
# lifecycle (partition -> fence -> heal), and replay byte-identically
# under its seed. A second seed guards against a dodging trajectory.
run_twice_cmp part7 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 7 --trials 200 --partition
grep -q '^violations: 0$' "$tmp/part7.stdout"
run_twice_cmp part11 cargo run --release -q -p chaos --bin gdrchaos -- run --seed 11 --trials 200 --partition
grep -q '^violations: 0$' "$tmp/part11.stdout"
grep -q 'split-brain' "$tmp/part11.stdout"
grep -q 'quorum-progress' "$tmp/part11.stdout"
grep -q 'heal-convergence' "$tmp/part11.stdout"
for what in partition fence heal; do
    grep -Eq "  $what/membership: [1-9]" "$tmp/part11.stdout"
done

# Partition-shrinker gate: the partition fixture plan must violate (a
# strict trial that forbids typed Partitioned errors trips the
# no-partitioned oracle) and shrink to exactly the committed minimal
# `partition=` repro.
set +e
cargo run --release -q -p chaos --bin gdrchaos -- fixture --partition --repro-out "$tmp/part_repro.txt" > "$tmp/part_fixture.txt"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "gdrchaos fixture --partition: expected exit 3 (violation found), got $rc" >&2
    exit 1
fi
cmp "$tmp/part_repro.txt" tests/golden/chaos_partition_minimal_repro.txt
grep -q 'shrunk to "seed=1 partition=split:2:20000:1200000"' "$tmp/part_fixture.txt"
# ... and the minimal partition repro replays byte-identically through
# chaos_trace --plan, landing the partition + fence instants (the
# replay harness's ops end before the heal instant would land)
part_grammar="$(grep -v '^#' "$tmp/part_repro.txt")"
run_twice_cmp partplan.json cargo run --release -q -p omb --bin chaos_trace OUT --plan "$part_grammar"
grep -q '"name":"partition"' "$tmp/partplan.json"
grep -q '"name":"fence"' "$tmp/partplan.json"

# Partition gate: the --partition trace carries the quorum-fence
# lifecycle (partition -> fence -> heal) as instants plus the cut's
# reroute onto the proxy path, gdrprof folds them into the partitions
# section with the heal-convergence metric, and the trace replays
# byte-identically under its seed.
run_twice_cmp part.json cargo run --release -q -p omb --bin chaos_trace OUT --partition
for name in partition fence heal fallback proxy-request; do
    grep -q "\"name\":\"$name\"" "$tmp/part.json"
done
ptout="$(cargo run --release -q -p obs-analyze --bin gdrprof -- analyze "$tmp/part.json" --json "$tmp/part_rep.json")"
grep -q 'partitions:' <<<"$ptout"
grep -Eq 'partitions 2 +fences 1 +heals 1 +last-epoch 2' <<<"$ptout"
grep -q 'heal-convergence 280.000us' <<<"$ptout"
grep -q '"partitions":{"partitions":2,"fences":1,"heals":1,"last_epoch":2' "$tmp/part_rep.json"
# a healed split self-diffs clean
cargo run --release -q -p obs-analyze --bin gdrprof -- diff "$tmp/part_rep.json" "$tmp/part_rep.json" --threshold 5 >/dev/null

# Partition-regression gate: the fixture pair holds every other metric
# flat while the candidate heals its quorum-fenced view slower — diff
# must trip with the partition-specific exit code 8.
expect_exit 8 part_diff.txt cargo run --release -q -p obs-analyze --bin gdrprof -- diff \
    tests/golden/report_partition_base.json tests/golden/report_partition_regressed.json \
    --threshold 10
grep -q 'partitions (quorum-fenced view):' "$tmp/part_diff.txt"
grep -q 'heal-convergence' "$tmp/part_diff.txt"
grep -q 'REGRESSED' "$tmp/part_diff.txt"

# Usage honesty: the CLIs advertise exactly the modes and exit codes
# the gates above rely on.
cargo run --release -q -p obs-analyze --bin gdrprof -- --help \
    | grep -q '8  diff found a partition (quorum-fenced view) regression'
cargo run --release -q -p omb --bin chaos_trace -- --help > "$tmp/ct_usage.txt"
grep -q -- '--partition  quorum fence/heal lifecycle + cut reroute' "$tmp/ct_usage.txt"
grep -q 'GDR_CHAOS_PART_SEED' "$tmp/ct_usage.txt"
gcu="$(cargo run --release -q -p chaos --bin gdrchaos -- --help 2>&1 || true)"
grep -q -- '\[--crash | --partition\]' <<<"$gcu"

echo "ci: OK"
