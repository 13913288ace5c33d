#!/usr/bin/env bash
# compare.sh — compare a benchmark snapshot's current section against its
# baseline section. The deterministic work counters (edges_traversed,
# ppta_visits, summaries_computed) must match exactly: any difference, in
# either direction, exits non-zero (multi-worker batch records are exempt,
# being schedule-dependent). Wall clock is advisory: ns/op regressions
# beyond the tolerance ratio print warnings only. I/O and schema errors
# also exit non-zero.
#
# Usage: scripts/bench/compare.sh [snapshot.json] [tolerance]
#   tolerance (wall clock only) defaults to 0.2 (20%); also settable via
#   $TOLERANCE.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"

FILE="${1:-BENCH_10.json}"
TOL="${2:-${TOLERANCE:-0.2}}"

echo "[bench] comparing $FILE (tolerance $TOL)"
go run ./cmd/experiments -bench-compare "$FILE" -tolerance "$TOL"
