#!/usr/bin/env bash
# Capture-and-replay smoke of the trace-file tools: gen_trace writes a
# binary NUTRACE1 capture of a catalog workload, run_trace replays it
# on two cores, and a hand-written text-form trace replays through the
# same loader.  Each JSON result is checked for its core count.
# Usage: scripts/trace_smoke.sh [build_dir]
set -euo pipefail

build="${1-build}"
gen="$build/tools/gen_trace"
run="$build/tools/run_trace"
[ -x "$gen" ] && [ -x "$run" ] || {
    echo "trace smoke: build tools/gen_trace and tools/run_trace first" >&2
    exit 1
}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$gen" --workload=echo_near --records=20000 "$tmp/echo.nutrace"
"$run" --records=20000 --json="$tmp/binary.json" \
    "$tmp/echo.nutrace" "$tmp/echo.nutrace"

# Text form: "pc addr gap r|w", a 64-block loop from eight PCs.
{
    echo "# pc addr gap r|w"
    awk 'BEGIN {
        for (i = 0; i < 4096; i++)
            printf "0x%x 0x%x %d %s\n", 4194304 + (i % 8) * 4,
                   268435456 + (i % 64) * 64, i % 5,
                   (i % 7 == 0) ? "w" : "r"
    }'
} > "$tmp/loop.trace"
"$run" --json="$tmp/text.json" "$tmp/loop.trace"

python3 - "$tmp/binary.json" "$tmp/text.json" <<'EOF'
import json
import sys

for path, cores, records in ((sys.argv[1], 2, 20000), (sys.argv[2], 1, 4096)):
    d = json.load(open(path))
    assert d["schema"] == "nucache-run/v1", path
    assert d["cores"] == cores, "%s: %s cores, want %d" % (path, d["cores"], cores)
    assert d["records_per_core"] == records, path
    for c in range(cores):
        assert d["stats"]["cpu%d" % c]["records"] >= records, path
print("trace smoke: binary replay on 2 cores and text replay passed")
EOF
