#!/usr/bin/env bash
# The benchmark of record (see README.md beside this file).
#
#   benchmark/run.sh [--seed N] [--only <workload>] [--smoke] [--check <prev results.json>]
#       Build, then run every workload in its own process — untraced for the
#       end-to-end metrics, then traced for the per-layer ones — check every
#       final view against the from-scratch oracle, print every metric with
#       its unit, and write benchmark/out/results.json. With --check, compare
#       against an earlier results.json afterwards. Exits non-zero on any
#       failed update, wrong view or regression.
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       One pass of one workload; the last line of standard output is the
#       result as one JSON object. This is the form BENCHMARK.json names.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to the caller's directory, which
# this script never leaves.
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
BIN="$TARGET/release/netrec-benchmark"
OUT="$HERE/out"
WORKLOADS=(link_flap region_churn tcp_set_churn dense_grow)

build() {
    cargo build --release --offline --manifest-path "$HERE/Cargo.toml" \
        --target-dir "$TARGET" >&2
}

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        build
        exec "$BIN" --out "$OUT" "$@"
    fi
done

seed=42
only=""
smoke=()
check=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --only) only="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        --check) check="$2"; shift 2 ;;
        *) sed -n '2,15p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done
[[ -n "$only" ]] && WORKLOADS=("$only")

build
mkdir -p "$OUT"
status=0
for w in "${WORKLOADS[@]}"; do
    for trace in 0 1; do
        "$BIN" --workload "$w" --seed "$seed" --trace "$trace" "${smoke[@]}" --out "$OUT" \
            || status=1
    done
done

# results.json: host metadata around the per-process records (each record
# carries its seed, its sample counts and its own verdict).
{
    printf '{"host": {"nproc": %s, "commit": "%s", "rustc": "%s", "seed": %s, "smoke": %s},\n' \
        "$(nproc)" \
        "$(git -C "$HERE" rev-parse --short HEAD 2>/dev/null || echo unknown)" \
        "$(rustc --version)" \
        "$seed" \
        "$([[ ${#smoke[@]} -gt 0 ]] && echo true || echo false)"
    printf ' "workloads": {\n'
    sep=""
    for w in "${WORKLOADS[@]}"; do
        [[ -f "$OUT/$w.trace0.json" && -f "$OUT/$w.trace1.json" ]] || continue
        printf '%s  "%s": {"untraced": %s,\n    "traced": %s}' "$sep" "$w" \
            "$(cat "$OUT/$w.trace0.json")" "$(cat "$OUT/$w.trace1.json")"
        sep=$',\n'
    done
    printf '\n }}\n'
} > "$OUT/results.json"
echo "results written to $OUT/results.json"

if [[ -n "$check" ]]; then
    "$BIN" --check "$check" --out "$OUT" || status=1
fi
exit "$status"
