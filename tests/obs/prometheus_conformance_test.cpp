// Exposition-format conformance for to_prometheus over a fully-populated
// registry: a mini-parser walks every line and checks the 0.0.4 text
// format invariants a real Prometheus scraper relies on — HELP/TYPE per
// family, legal metric names, `_total` counters, cumulative `_bucket`
// series ending at `le="+Inf"` and agreeing with `_count`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"

namespace ropus::obs {
namespace {

bool legal_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto word = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return first ? alpha : alpha || (c >= '0' && c <= '9');
  };
  if (!word(name[0], true)) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!word(name[i], false)) return false;
  }
  return true;
}

struct Sample {
  std::string name;    // full sample name, e.g. ropus_x_seconds_bucket
  std::string labels;  // raw text inside {...}, empty if none
  double value = 0.0;
};

/// The family a sample belongs to: histogram series drop their
/// _bucket/_sum/_count suffix, everything else is its own family.
std::string family_of(const std::string& sample_name) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (sample_name.size() > s.size() &&
        sample_name.compare(sample_name.size() - s.size(), s.size(), s) == 0) {
      return sample_name.substr(0, sample_name.size() - s.size());
    }
  }
  return sample_name;
}

TEST(PrometheusConformanceTest, FullRegistryExportParses) {
  Registry registry;
  registry.counter("serve.transport.lines").add(42);
  registry.counter("already_total").add(1);
  registry.counter("weird-name.with.dots").add(7);
  registry.gauge("serve.journal.bytes").set(1234.5);
  registry.gauge("negative").set(-3.25);
  Histogram& h = registry.histogram("serve.request.tick_seconds");
  for (int i = 0; i < 100; ++i) h.record(0.001 * (i + 1));
  registry.histogram("empty_seconds");  // zero samples

  const std::string text = to_prometheus(registry.snapshot());

  std::map<std::string, std::string> type_of;   // family -> TYPE
  std::set<std::string> helped;                 // families with HELP
  std::vector<Sample> samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "exposition format has no blank lines";
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      helped.insert(rest.substr(0, space));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      const std::string family = rest.substr(0, space);
      const std::string type = rest.substr(space + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      // TYPE must appear once per family, before any of its samples.
      EXPECT_EQ(type_of.count(family), 0u) << "duplicate TYPE for " << family;
      type_of[family] = type;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;

    Sample s;
    const std::size_t brace = line.find('{');
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    if (brace != std::string::npos && brace < space) {
      const std::size_t close = line.find('}', brace);
      ASSERT_NE(close, std::string::npos) << line;
      s.name = line.substr(0, brace);
      s.labels = line.substr(brace + 1, close - brace - 1);
    } else {
      s.name = line.substr(0, space);
    }
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    EXPECT_TRUE(legal_metric_name(s.name)) << s.name;
    EXPECT_EQ(s.name.rfind("ropus_", 0), 0u)
        << "metric missing the ropus_ prefix: " << s.name;
    samples.push_back(std::move(s));
  }
  ASSERT_FALSE(samples.empty());

  // Every sample's family carries both HELP and TYPE.
  for (const Sample& s : samples) {
    const std::string family = family_of(s.name);
    const bool histogram_series = family != s.name;
    const std::string keyed =
        histogram_series || type_of.count(family) != 0u ? family : s.name;
    ASSERT_EQ(type_of.count(keyed), 1u) << "no TYPE for " << s.name;
    EXPECT_EQ(helped.count(keyed), 1u) << "no HELP for " << s.name;
    if (histogram_series) {
      EXPECT_EQ(type_of[keyed], "histogram") << s.name;
    }
  }

  // Counters carry the _total suffix (not doubled for already_total).
  for (const auto& [family, type] : type_of) {
    if (type == "counter") {
      EXPECT_TRUE(family.size() > 6 &&
                  family.compare(family.size() - 6, 6, "_total") == 0)
          << family;
      EXPECT_EQ(family.find("_total_total"), std::string::npos) << family;
    }
  }

  // Histogram buckets: le labels parse, counts are cumulative, the last
  // bucket is +Inf and equals _count.
  for (const auto& [family, type] : type_of) {
    if (type != "histogram") continue;
    std::vector<std::pair<double, double>> buckets;  // (le, value)
    double count = -1.0;
    for (const Sample& s : samples) {
      if (s.name == family + "_bucket") {
        ASSERT_EQ(s.labels.rfind("le=\"", 0), 0u) << s.labels;
        const std::string le = s.labels.substr(4, s.labels.size() - 5);
        const double bound = le == "+Inf"
                                 ? std::numeric_limits<double>::infinity()
                                 : std::strtod(le.c_str(), nullptr);
        buckets.emplace_back(bound, s.value);
      } else if (s.name == family + "_count") {
        count = s.value;
      }
    }
    ASSERT_FALSE(buckets.empty()) << family;
    ASSERT_GE(count, 0.0) << family;
    for (std::size_t i = 1; i < buckets.size(); ++i) {
      EXPECT_LT(buckets[i - 1].first, buckets[i].first) << family;
      EXPECT_LE(buckets[i - 1].second, buckets[i].second)
          << family << ": buckets must be cumulative";
    }
    EXPECT_TRUE(std::isinf(buckets.back().first)) << family;
    EXPECT_EQ(buckets.back().second, count)
        << family << ": +Inf bucket must equal _count";
  }

  // No summary-style quantile output sneaks in.
  EXPECT_EQ(text.find("quantile="), std::string::npos);
}

TEST(PrometheusConformanceTest, GlobalRegistrySnapshotExportsClean) {
  // Whatever instrumentation has already registered in this process must
  // also export conformantly — this is the exact payload GET /metrics
  // serves.
  counter("conformance.probe_total").add(1);
  gauge("conformance.gauge").set(2.0);
  histogram("conformance.latency_seconds").record(0.5);
  const std::string text = to_prometheus(Registry::global().snapshot());
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("# TYPE ropus_conformance_probe_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ropus_conformance_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("ropus_conformance_latency_seconds_bucket{le=\"+Inf\"} 1"),
      std::string::npos);
}

}  // namespace
}  // namespace ropus::obs
