#include "common/parallel.h"

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.h"

namespace ropus::parallel {

namespace {

std::atomic<std::size_t> g_thread_count{0};  // 0 = hardware default
std::atomic<void (*)()> g_thread_start_hook{nullptr};

// True on pool workers (and on callers already inside a for_each_index),
// so nested parallel loops degrade to the serial path instead of waiting
// on a pool that is busy running their parent.
thread_local bool t_in_parallel = false;

/// One sharded loop in flight: workers pull indices from a shared atomic
/// cursor (cheap dynamic load balancing — shard cost varies wildly in the
/// faultsim and genetic workloads), so no index is ever run twice.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> workers_done{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  void run_shards() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        // Drain the remaining indices: results past an error are discarded
        // anyway, and stopping early unblocks the caller sooner.
        next.store(n, std::memory_order_relaxed);
      }
    }
  }
};

/// Lazily-created fixed pool of hardware_threads() - 1 workers (the caller
/// is the last "thread"). Workers sleep between jobs; one job runs at a
/// time (nested calls run inline), so a single pool serves the process.
class Pool {
 public:
  static Pool& instance() {
    // Intentionally leaked: workers sleep on wake_ between jobs, and tearing
    // the pool down at static-destruction time would have them wake on a
    // destroyed condition variable. The pointer stays reachable, so leak
    // checkers stay quiet; process exit reclaims the threads.
    static Pool* pool = new Pool;
    return *pool;
  }

  void run(Job& job, std::size_t extra_workers) {
    std::unique_lock<std::mutex> lock(mutex_);
    ensure_workers(extra_workers);
    const std::size_t recruited =
        extra_workers < workers_.size() ? extra_workers : workers_.size();
    job_ = &job;
    wanted_ = recruited;
    joined_ = 0;
    generation_ += 1;
    lock.unlock();
    wake_.notify_all();

    t_in_parallel = true;
    job.run_shards();
    t_in_parallel = false;

    // Wait for every recruited worker to finish its last shard.
    lock.lock();
    done_.wait(lock, [&] {
      return job.workers_done.load(std::memory_order_acquire) >= recruited;
    });
    job_ = nullptr;
  }

 private:
  void ensure_workers(std::size_t wanted) {
    while (workers_.size() < wanted) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    t_in_parallel = true;
    if (void (*hook)() = g_thread_start_hook.load(std::memory_order_acquire)) {
      hook();
    }
    std::uint64_t seen_generation = 0;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return job_ != nullptr && generation_ != seen_generation &&
                 joined_ < wanted_;
        });
        seen_generation = generation_;
        joined_ += 1;
        job = job_;
      }
      job->run_shards();
      {
        // Under the mutex so the caller cannot miss the wakeup between its
        // predicate check and its sleep.
        const std::lock_guard<std::mutex> lock(mutex_);
        job->workers_done.fetch_add(1, std::memory_order_release);
      }
      done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;  // reclaimed by process exit
  Job* job_ = nullptr;
  std::size_t wanted_ = 0;
  std::size_t joined_ = 0;
  std::uint64_t generation_ = 0;

  Pool() = default;
};

}  // namespace

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t thread_count() {
  const std::size_t configured =
      g_thread_count.load(std::memory_order_relaxed);
  return configured == 0 ? hardware_threads() : configured;
}

void set_thread_count(std::size_t n) {
  g_thread_count.store(n, std::memory_order_relaxed);
}

void for_each_index(std::size_t n, std::size_t threads,
                    const std::function<void(std::size_t)>& fn) {
  ROPUS_REQUIRE(threads >= 1, "thread count must be >= 1");
  if (n == 0) return;
  if (n == 1 || threads == 1 || t_in_parallel) {
    // The serial path — also taken by nested calls, so a parallel caller's
    // shards never deadlock waiting on their own pool.
    const bool was_nested = t_in_parallel;
    t_in_parallel = true;
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      t_in_parallel = was_nested;
      throw;
    }
    t_in_parallel = was_nested;
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  const std::size_t workers = (threads < n ? threads : n) - 1;
  Pool::instance().run(job, workers);
  if (job.error) std::rethrow_exception(job.error);
}

void set_thread_start_hook(void (*hook)()) {
  g_thread_start_hook.store(hook, std::memory_order_release);
}

}  // namespace ropus::parallel
