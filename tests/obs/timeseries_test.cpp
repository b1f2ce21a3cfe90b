#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "obs/metrics.h"

namespace ropus::obs {
namespace {

Snapshot snap_with_counter(const std::string& name, std::uint64_t value) {
  Snapshot snap;
  snap.counters.emplace_back(name, value);
  return snap;
}

using Windows = std::vector<json::Value>;

/// One metric's windows as GET /stats.json serves them, oldest first.
const Windows& windows(const json::Value& doc, const char* kind,
                       const char* name) {
  return doc.at(kind).at(name).as_array();
}

TEST(TimeSeriesTest, CounterDeltasAreMeasuredAgainstPreviousSample) {
  TimeSeries ts;
  ts.sample(snap_with_counter("reqs", 10), 1.0);
  ts.sample(snap_with_counter("reqs", 25), 2.0);
  ts.sample(snap_with_counter("reqs", 25), 3.0);

  const json::Value doc = json::parse(ts.to_json());
  const Windows& series = windows(doc, "counters", "reqs");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].at("delta").as_number(), 10.0);  // delta from zero
  EXPECT_EQ(series[0].at("total").as_number(), 10.0);
  EXPECT_EQ(series[1].at("delta").as_number(), 15.0);
  EXPECT_EQ(series[1].at("total").as_number(), 25.0);
  EXPECT_EQ(series[2].at("delta").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(series[1].at("dt").as_number(), 1.0);
}

TEST(TimeSeriesTest, CounterResetRestartsDeltaInsteadOfWrapping) {
  TimeSeries ts;
  ts.sample(snap_with_counter("reqs", 100), 1.0);
  ts.sample(snap_with_counter("reqs", 4), 2.0);  // process restarted

  const json::Value doc = json::parse(ts.to_json());
  const Windows& series = windows(doc, "counters", "reqs");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[1].at("delta").as_number(), 4.0);
  EXPECT_EQ(series[1].at("total").as_number(), 4.0);
}

TEST(TimeSeriesTest, RingOverwritesOldestAtCapacity) {
  TimeSeries::Options options;
  options.capacity = 4;
  TimeSeries ts(options);
  for (int i = 1; i <= 10; ++i) {
    ts.sample(snap_with_counter("c", static_cast<std::uint64_t>(i)),
              static_cast<double>(i));
  }
  const json::Value doc = json::parse(ts.to_json());
  const Windows& series = windows(doc, "counters", "c");
  ASSERT_EQ(series.size(), 4u);
  // Oldest-first: samples 7..10 survive, each with delta 1.
  EXPECT_EQ(series.front().at("total").as_number(), 7.0);
  EXPECT_EQ(series.back().at("total").as_number(), 10.0);
  for (const json::Value& w : series) {
    EXPECT_EQ(w.at("delta").as_number(), 1.0);
  }
}

TEST(TimeSeriesTest, MaybeSampleHonorsCadence) {
  Registry registry;
  registry.counter("x").add(1);
  TimeSeries::Options options;
  options.cadence_seconds = 1.0;
  TimeSeries ts(options);

  EXPECT_TRUE(ts.maybe_sample(registry, 10.0));   // first always samples
  EXPECT_FALSE(ts.maybe_sample(registry, 10.5));  // inside the cadence
  EXPECT_TRUE(ts.maybe_sample(registry, 11.0));
  EXPECT_EQ(ts.samples(), 2u);
  const json::Value doc = json::parse(ts.to_json());
  EXPECT_DOUBLE_EQ(doc.at("last_sample_seconds").as_number(), 11.0);
}

TEST(TimeSeriesTest, GaugesAndHistogramsAreSampled) {
  Registry registry;
  registry.gauge("g").set(4.5);
  registry.histogram("h").record(0.25);
  registry.histogram("h").record(0.75);
  TimeSeries ts;
  ts.sample(registry.snapshot(), 1.0);
  registry.histogram("h").record(0.5);
  ts.sample(registry.snapshot(), 2.0);

  const json::Value doc = json::parse(ts.to_json());
  const Windows& gauges = windows(doc, "gauges", "g");
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_DOUBLE_EQ(gauges[0].at("value").as_number(), 4.5);

  const Windows& hists = windows(doc, "histograms", "h");
  ASSERT_EQ(hists.size(), 2u);
  EXPECT_EQ(hists[0].at("delta").as_number(), 2.0);  // all recorded so far
  EXPECT_EQ(hists[1].at("delta").as_number(), 1.0);
  EXPECT_EQ(hists[1].at("count").as_number(), 3.0);
}

TEST(TimeSeriesTest, ToJsonParsesAndCarriesTheSeries) {
  Registry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(1.5);
  registry.histogram("h").record(0.1);
  TimeSeries ts;
  ts.sample(registry.snapshot(), 3.0);

  const json::Value doc = json::parse(ts.to_json());
  EXPECT_EQ(doc.at("samples").as_number(), 1.0);
  const json::Value& c = doc.at("counters").at("c");
  ASSERT_EQ(c.as_array().size(), 1u);
  EXPECT_EQ(c.as_array()[0].at("total").as_number(), 7.0);
  EXPECT_EQ(doc.at("gauges").at("g").as_array().size(), 1u);
  EXPECT_EQ(doc.at("histograms").at("h").as_array().size(), 1u);
}

TEST(TimeSeriesTest, OptionsValidate) {
  TimeSeries::Options zero_capacity;
  zero_capacity.capacity = 0;
  EXPECT_THROW(TimeSeries{zero_capacity}, InvalidArgument);
  TimeSeries::Options bad_cadence;
  bad_cadence.cadence_seconds = 0.0;
  EXPECT_THROW(TimeSeries{bad_cadence}, InvalidArgument);
}

}  // namespace
}  // namespace ropus::obs
