#include "obs/timeseries.h"

#include <algorithm>

#include "common/error.h"
#include "common/json.h"

namespace ropus::obs {

void TimeSeries::Options::validate() const {
  if (capacity == 0) {
    throw InvalidArgument("timeseries capacity must be positive");
  }
  if (!(cadence_seconds > 0.0)) {
    throw InvalidArgument("timeseries cadence_seconds must be positive");
  }
}

TimeSeries::TimeSeries() : TimeSeries(Options{}) {}

TimeSeries::TimeSeries(Options options) : options_(options) {
  options_.validate();
}

void TimeSeries::sample(const Snapshot& snapshot, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double prev = samples_ > 0 ? last_sample_ : now;
  for (const auto& [name, total] : snapshot.counters) {
    auto& ring = counters_[name];
    std::uint64_t before = 0;
    if (ring.count > 0) before = ring.at(ring.count - 1).total;
    CounterWindow w;
    w.start_seconds = prev;
    w.duration_seconds = now - prev;
    // A counter that shrank was reset (fresh registry in tests); restart
    // the delta from the new value rather than wrapping around.
    w.delta = total >= before ? total - before : total;
    w.total = total;
    ring.push(options_.capacity, w);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauges_[name].push(options_.capacity, GaugeWindow{now, value});
  }
  for (const auto& [name, snap] : snapshot.histograms) {
    auto& ring = histograms_[name];
    std::uint64_t before = 0;
    if (ring.count > 0) before = ring.at(ring.count - 1).snapshot.count;
    HistogramWindow w;
    w.start_seconds = now;
    w.delta = snap.count >= before ? snap.count - before : snap.count;
    w.snapshot = snap;
    ring.push(options_.capacity, w);
  }
  samples_ += 1;
  last_sample_ = now;
}

bool TimeSeries::maybe_sample(const Registry& registry, double now) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_ > 0 && now - last_sample_ < options_.cadence_seconds) {
      return false;
    }
  }
  sample(registry.snapshot(), now);
  return true;
}

std::size_t TimeSeries::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::string TimeSeries::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Writer w;
  w.begin_object();
  w.key("cadence_seconds").value(options_.cadence_seconds);
  w.key("capacity").value(options_.capacity);
  w.key("samples").value(samples_);
  w.key("last_sample_seconds").value(last_sample_);
  w.key("counters").begin_object();
  for (const auto& [name, ring] : counters_) {
    w.key(name).begin_array();
    for (std::size_t i = 0; i < ring.count; ++i) {
      const CounterWindow& cw = ring.at(i);
      w.begin_object();
      w.key("t").value(cw.start_seconds);
      w.key("dt").value(cw.duration_seconds);
      w.key("delta").value(static_cast<std::int64_t>(cw.delta));
      w.key("total").value(static_cast<std::int64_t>(cw.total));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, ring] : gauges_) {
    w.key(name).begin_array();
    for (std::size_t i = 0; i < ring.count; ++i) {
      const GaugeWindow& gw = ring.at(i);
      w.begin_object();
      w.key("t").value(gw.start_seconds);
      w.key("value").value(gw.value);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, ring] : histograms_) {
    w.key(name).begin_array();
    for (std::size_t i = 0; i < ring.count; ++i) {
      const HistogramWindow& hw = ring.at(i);
      w.begin_object();
      w.key("t").value(hw.start_seconds);
      w.key("delta").value(static_cast<std::int64_t>(hw.delta));
      w.key("count").value(static_cast<std::int64_t>(hw.snapshot.count));
      w.key("sum").value(hw.snapshot.sum);
      w.key("p50").value(hw.snapshot.p50);
      w.key("p95").value(hw.snapshot.p95);
      w.key("p99").value(hw.snapshot.p99);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace ropus::obs
