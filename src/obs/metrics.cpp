#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace ropus::obs {

namespace {
std::atomic<bool> g_timing_enabled{true};

/// fetch_add for atomic<double> via compare-exchange (portable across
/// standard libraries that lack the C++20 floating-point overloads).
void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}
}  // namespace

bool timing_enabled() {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void set_timing_enabled(bool enabled) {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Histogram::Histogram(const Options& options) : options_(options) {
  ROPUS_REQUIRE(options_.buckets >= 2, "histogram needs at least two buckets");
  ROPUS_REQUIRE(options_.min > 0.0 && options_.max > options_.min,
                "histogram bounds must satisfy 0 < min < max");
  ratio_ = std::pow(options_.max / options_.min,
                    1.0 / static_cast<double>(options_.buckets));
  inv_log_ratio_ = 1.0 / std::log(ratio_);
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(options_.buckets);
  for (std::size_t b = 0; b < options_.buckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::size_t Histogram::bucket_of(double value) const {
  if (!(value > options_.min)) return 0;
  if (value >= options_.max) return options_.buckets - 1;
  const auto idx = static_cast<std::size_t>(
      std::log(value / options_.min) * inv_log_ratio_);
  return std::min(idx, options_.buckets - 1);
}

void Histogram::record(double value) {
  if (std::isnan(value)) return;  // never count unrepresentable samples
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  // Buckets are read without a lock: a concurrent record() may or may not
  // be visible, which only shifts the percentile by one sample.
  std::vector<std::uint64_t> counts(options_.buckets);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < options_.buckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  HistogramSnapshot snap;
  snap.count = total;
  // Cumulative export buckets, downsampled to ~16 boundaries so the
  // exposition stays readable; always present (even at count 0) so the
  // Prometheus histogram family is well-formed from first scrape.
  const std::size_t stride = std::max<std::size_t>(1, options_.buckets / 16);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b + 1 < options_.buckets; ++b) {
    cumulative += counts[b];
    if ((b + 1) % stride == 0) {
      snap.buckets.emplace_back(
          options_.min * std::pow(ratio_, static_cast<double>(b + 1)),
          cumulative);
    }
  }
  snap.buckets.emplace_back(std::numeric_limits<double>::infinity(), total);
  if (total == 0) return snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);

  const auto at = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < options_.buckets; ++b) {
      seen += counts[b];
      if (seen > rank) {
        // Geometric midpoint of the bucket, clamped into the observed
        // range so estimates never stray outside [min, max].
        const double lo = options_.min * std::pow(ratio_,
                                                  static_cast<double>(b));
        const double estimate = lo * std::sqrt(ratio_);
        return std::clamp(estimate, snap.min, snap.max);
      }
    }
    return snap.max;
  };
  snap.p50 = at(0.50);
  snap.p95 = at(0.95);
  snap.p99 = at(0.99);
  return snap;
}

void Histogram::reset() {
  for (std::size_t b = 0; b < options_.buckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: metric
  return *instance;  // references must outlive static-destruction order
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ROPUS_REQUIRE(gauges_.find(name) == gauges_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric name already registered as a different kind");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ROPUS_REQUIRE(counters_.find(name) == counters_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric name already registered as a different kind");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const Histogram::Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  ROPUS_REQUIRE(counters_.find(name) == counters_.end() &&
                    gauges_.find(name) == gauges_.end(),
                "metric name already registered as a different kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(options))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->snapshot());
  }
  return snap;  // std::map iteration order keeps every section name-sorted
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}

Gauge& gauge(std::string_view name) { return Registry::global().gauge(name); }

Histogram& histogram(std::string_view name,
                     const Histogram::Options& options) {
  return Registry::global().histogram(name, options);
}

}  // namespace ropus::obs
