// Deterministic sharded execution: a small fixed thread pool that runs
// `fn(0) .. fn(n-1)`, each index exactly once, across a configurable number
// of threads.
//
// Determinism contract: the pool guarantees nothing about *which* thread
// runs an index or in what order — callers get bit-identical output at any
// thread count by (a) drawing any per-index random seeds sequentially
// BEFORE dispatch, in index order (the CRN discipline faultsim and the
// genetic search already follow), and (b) writing each index's result into
// an index-addressed slot and merging sequentially afterwards. With that
// shape, `--threads=8` and `--threads=1` produce byte-identical reports;
// tests/common/parallel_test.cpp and the faultsim/genetic determinism tests
// hold the contract.
//
// `thread_count() <= 1` (or n <= 1) bypasses the pool entirely and runs the
// plain serial loop on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace ropus::parallel {

/// Threads the hardware offers (>= 1).
std::size_t hardware_threads();

/// The process-wide thread budget for sharded loops. Defaults to
/// hardware_threads(); `ropus_cli --threads=N` overrides it.
std::size_t thread_count();

/// Sets the process-wide budget; 0 restores the hardware default.
void set_thread_count(std::size_t n);

/// Runs fn(i) for i in [0, n) across up to `threads` workers (the calling
/// thread participates). Blocks until every index ran. The first exception
/// thrown by any fn(i) is rethrown on the caller after the loop drains;
/// remaining indices may be skipped. Nested calls from inside a worker run
/// inline (no pool-on-pool deadlock).
void for_each_index(std::size_t n, std::size_t threads,
                    const std::function<void(std::size_t)>& fn);

/// Registers a callback invoked once at the start of every pool worker
/// thread created after this call. This is the seam the sampling profiler
/// (src/obs/profiler.h) uses to register worker threads for per-thread CPU
/// timers without common/ depending on obs/: install the hook before the
/// first sharded loop (ropus_cli does it at startup) and every worker the
/// pool ever spawns announces itself. The hook must be cheap and must not
/// call back into for_each_index. nullptr clears it.
void set_thread_start_hook(void (*hook)());

}  // namespace ropus::parallel
