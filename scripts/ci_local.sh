#!/usr/bin/env bash
# Run every lane of .github/workflows/ci.yml offline, in order,
# stopping at the first failure:
#   1. lint        clang-format drift check (skipped, with a note,
#                  when clang-format is not installed)
#   2. build-and-test
#                  Release -DNUCACHE_WERROR=ON build, ctest, figure,
#                  bench and trace capture-and-replay smokes, both
#                  serve smokes
#   3. perf-smoke  throughput bench, telemetry/trace smoke, and the
#                  lookup, estimate, attack and serve-metrics gates
#   4. sanitize    asan-ubsan and tsan builds (invariant checker on),
#                  ctest and the checked bench smoke; tsan reruns the
#                  serve concurrency tests
# The GitHub-only steps (ccache stats, job summaries, artifact
# uploads) have no local equivalent and are left out.
#
# Usage: scripts/ci_local.sh   (from anywhere; takes no flags)
# Build trees go under build-ci/ at the repo root; gate outputs under
# build-ci/perf/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
jobs="$(nproc 2>/dev/null || echo 2)"
out="build-ci"
generator=()
command -v ninja >/dev/null && generator=(-G Ninja)

lane() { printf '\n==== ci_local: %s ====\n' "$*"; }

configure_and_build() {
    local dir="$1" type="$2"
    shift 2
    cmake -S . -B "$dir" "${generator[@]}" -DCMAKE_BUILD_TYPE="$type" "$@"
    cmake --build "$dir" -j "$jobs"
}

# ---- lint -------------------------------------------------------
lane lint
if command -v clang-format >/dev/null; then
    git ls-files \
        'src/**/*.hh' 'src/**/*.cc' \
        'tools/*.cc' 'tests/*.cc' \
        'bench/*.hh' 'bench/*.cc' \
        | xargs clang-format --dry-run --Werror
else
    echo "lint skipped: clang-format is not installed"
fi

# ---- build-and-test ---------------------------------------------
lane build-and-test
rel="$out/release"
configure_and_build "$rel" Release -DNUCACHE_WERROR=ON
ctest --test-dir "$rel" --output-on-failure -j "$jobs"
"$rel/bench/bench_table1_config"
"$rel/examples/quickstart" --records=100000
perf="$out/perf"
mkdir -p "$perf"
"$rel/bench/bench_fig4_dual_core" --quick --jobs 2 \
    --json "$perf/bench_fig4_dual_core.json"
python3 -c "import json, sys; d = json.load(open(sys.argv[1])); assert d['schema'] == 'nucache-bench/v1' and d['sections'][0]['cells'], 'malformed bench JSON'" \
    "$perf/bench_fig4_dual_core.json"
"$rel/tools/nucache_report" --check "$perf/bench_fig4_dual_core.json"
scripts/trace_smoke.sh "$rel"
MIN_RPS=5000 ESTIMATE=1 scripts/serve_smoke.sh "$rel"
SHARDS=2 ATTACK=1 MIN_RPS=5000 scripts/serve_smoke.sh "$rel"

# ---- perf-smoke -------------------------------------------------
lane perf-smoke
"$rel/bench/bench_throughput" --quick \
    --json "$perf/BENCH_throughput_ci.json" \
    --serve-metrics-json "$perf/serve_metrics_ci.json"
"$rel/bench/bench_fig4_dual_core" --quick --jobs 2 \
    --telemetry --trace-out="$perf/fig4_ci_trace.json" \
    --json "$perf/fig4_ci.json"
"$rel/tools/nucache_report" --check \
    "$perf/BENCH_throughput_ci.json" "$perf/serve_metrics_ci.json" \
    "$perf/fig4_ci.json" "$perf/fig4_ci_telemetry.json" \
    "$perf/fig4_ci_trace.json"
"$rel/tools/nucache_report" "$perf/fig4_ci_telemetry.json"
"$rel/tools/nucache_report" "$perf/serve_metrics_ci.json"
"$rel/tools/nucache_report" \
    --diff BENCH_throughput.json "$perf/BENCH_throughput_ci.json" \
    --threshold=0.10
"$rel/bench/bench_estimate" --quick --jobs 2 --json "$perf/estimate_ci.json"
"$rel/tools/nucache_report" --check "$perf/estimate_ci.json"
"$rel/tools/nucache_report" "$perf/estimate_ci.json"
"$rel/bench/bench_attack" --quick --jobs 2 --json "$perf/attack_ci.json"
"$rel/tools/nucache_report" --check "$perf/attack_ci.json"
"$rel/tools/nucache_report" "$perf/attack_ci.json"
python3 - "$perf/BENCH_throughput_ci.json" "$perf/serve_metrics_ci.json" <<'EOF'
import json
import sys

d = json.load(open(sys.argv[1]))
ab = next(s for s in d["sections"] if s["label"] == "serve_loopback")
assert ab["within_noise"], (
    "metrics-on loopback throughput regressed: "
    "ratio %.3f < tolerance %.2f (off %.0f on %.0f req/s)"
    % (ab["ab_ratio"], ab["noise_tolerance"],
       ab["median_off_rps"], ab["median_on_rps"]))
print("serve A/B: off %.0f on %.0f req/s, ratio %.3f" % (
    ab["median_off_rps"], ab["median_on_rps"], ab["ab_ratio"]))
m = json.load(open(sys.argv[2]))
assert m["schema"] == "nucache-metrics/v1"
hits = m["requests"].get("cache_hit", {}).get("count", 0)
assert hits > 0, "no cache_hit traffic in scraped metrics"
print("serve metrics: %d cache_hit samples scraped" % hits)
EOF

# ---- sanitize ---------------------------------------------------
# fatal() exits by design, so leak checking would only report
# intentional exits; every other finding stays fatal.
export ASAN_OPTIONS=detect_leaks=0
export UBSAN_OPTIONS=print_stacktrace=1
for lane_spec in asan-ubsan:address,undefined tsan:thread; do
    name="${lane_spec%%:*}"
    lane "sanitize ($name)"
    dir="$out/$name"
    configure_and_build "$dir" RelWithDebInfo \
        -DNUCACHE_SANITIZE="${lane_spec#*:}" -DNUCACHE_CHECK=ON
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
    "$dir/bench/bench_table1_config" --quick --check
    if [ "$name" = tsan ]; then
        ctest --test-dir "$dir" --output-on-failure \
            -R "SlowReaderIsShed|PipelinedResponses|StreamParameterIsRejected|ShortRunIsNotStuck|ConcurrentRunsAcrossMoreWindows|ShortTelemetryRunIsNotStuck|BadPolicySpecIsABadRequest"
    fi
done

lane "all lanes passed"
