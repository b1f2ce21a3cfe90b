// The allocation grid: the arithmetic contract that makes delta evaluation
// bit-exact.
//
// Every per-slot CoS allocation value in the system is snapped to the
// fixed-point grid of multiples of 2^-20 CPU (~1e-6 CPU, far below any
// physically meaningful allocation difference) the moment it is produced
// (qos::AllocationTrace's constructor). The payoff is a theorem, not a
// heuristic: IEEE-754 doubles represent every multiple of 2^-20 up to 2^33
// exactly, and sums/differences of exactly-representable values whose result
// is again representable are computed exactly. So as long as per-slot sums
// stay under kSumLimit (2^33 CPUs — eight orders of magnitude above any
// real server), plain double `+=` / `-=` over on-grid values is EXACT:
//   - order-independent (batch sum in any order gives the same bits),
//   - reversible (add then remove restores the previous bits), and
//   - mergeable (partial sums combine to the full sum's bits).
// That is what lets sim::IncrementalEvaluator maintain per-server aggregates
// under add/remove/move and still produce verdicts bit-identical to the
// batch oracle (sim::aggregate_workloads + sim::required_capacity), at full
// hardware speed and with no exotic arithmetic. qos::WorkloadAllocations
// snaps attribute traces (memory, disk, network) the same way. Where values
// are snapped, and how the engine's registration budget keeps every sum
// below kSumLimit, is stated once in docs/algorithms.md §11 ("The
// precondition").
//
// Layering: common depends on nothing; slo, qos, and sim all share these
// helpers.
#pragma once

#include <cmath>

namespace ropus::grid {

/// Grid resolution: allocations are multiples of 2^-20 CPU.
inline constexpr double kStep = 0x1p-20;
inline constexpr double kScale = 0x1p20;

/// Largest magnitude for which *sums* of on-grid values are guaranteed
/// exact: a sum S = K * 2^-20 is exactly representable while K < 2^53,
/// i.e. S < 2^33. (Individual values >= 2^33 are trivially on-grid — their
/// ULP already exceeds 2^-20 — but sums past this limit may round.)
inline constexpr double kSumLimit = 0x1p33;

/// Nearest grid point (ties to even, the IEEE default). Both the scaling
/// multiplications are by powers of two and therefore exact; the only
/// rounding is the intentional nearbyint. Idempotent: snap(snap(x)) ==
/// snap(x) for every finite x.
inline double snap(double x) { return std::nearbyint(x * kScale) * kStep; }

/// True when `x` is exactly representable as a multiple of 2^-20 (which
/// includes every value snap() returns and every finite value of magnitude
/// >= 2^33).
inline bool on_grid(double x) { return snap(x) == x; }

}  // namespace ropus::grid
