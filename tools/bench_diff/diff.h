// Compares BENCH_<name>.json results against a committed baseline so perf
// regressions show up in CI instead of drifting silently (bench/baselines/
// holds the reference run; docs/observability.md documents the schema).
//
// Only *timing* entries gate: metrics whose name ends in `_us` or
// `_seconds` (slowdown = current/baseline - 1) and per-phase `ops_per_sec`
// throughput (slowdown = baseline/current - 1). Counts, sizes and other
// scalars are environment-dependent detail, not perf.
#pragma once

#include <ostream>
#include <span>
#include <string>

namespace ropus::benchdiff {

/// Entry point shared by main() and tests.
///
///   bench_diff --baseline=<file|dir> --current=<file|dir>
///              [--threshold=0.15] [--warn-only] [--json-out=<path>]
///
/// Directories are paired by BENCH_<name>.json filename. Returns 0 when no
/// gated entry slowed down more than the threshold, 1 on usage errors and
/// on a pair of runs whose shape differs (`weeks`, `fast` or
/// `repetitions`; a field one document lacks counts as differing), and 2
/// on a regression (0 with --warn-only, for runners without isolation).
/// Baseline entries missing from the current run (or vice versa) warn but
/// do not fail — benches evolve.
int run(std::span<const std::string> args, std::ostream& out,
        std::ostream& err);

}  // namespace ropus::benchdiff
