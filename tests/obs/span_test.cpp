#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/json.h"

namespace ropus::obs {
namespace {

/// Enables the global tracer for one test and restores the disabled
/// default afterwards, leaving no records behind.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().clear();
    Tracer::global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }

  static const SpanRecord& find(const std::vector<SpanRecord>& records,
                                std::string_view name) {
    const auto it =
        std::find_if(records.begin(), records.end(),
                     [&](const SpanRecord& r) { return r.name == name; });
    EXPECT_NE(it, records.end()) << name;
    return *it;
  }
};

TEST_F(TracerTest, DisabledCollectsNothing) {
  Tracer::global().set_enabled(false);
  { ScopedSpan span("test.span.disabled"); }
  EXPECT_TRUE(Tracer::global().records().empty());
}

TEST_F(TracerTest, NestingRecordsParentChildAndDepth) {
  {
    ScopedSpan outer("test.span.outer");
    {
      ScopedSpan inner("test.span.inner");
      { ScopedSpan leaf("test.span.leaf"); }
    }
    { ScopedSpan sibling("test.span.sibling"); }
  }
  const auto records = Tracer::global().records();
  ASSERT_EQ(records.size(), 4u);

  const SpanRecord& outer = find(records, "test.span.outer");
  const SpanRecord& inner = find(records, "test.span.inner");
  const SpanRecord& leaf = find(records, "test.span.leaf");
  const SpanRecord& sibling = find(records, "test.span.sibling");

  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.parent, static_cast<std::int64_t>(outer.id));
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(leaf.parent, static_cast<std::int64_t>(inner.id));
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(sibling.parent, static_cast<std::int64_t>(outer.id));
  EXPECT_EQ(sibling.depth, 1u);
}

TEST_F(TracerTest, RecordsAreStartOrdered) {
  { ScopedSpan a("test.span.first"); }
  { ScopedSpan b("test.span.second"); }
  { ScopedSpan c("test.span.third"); }
  const auto records = Tracer::global().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                             [](const SpanRecord& x, const SpanRecord& y) {
                               return x.start_seconds < y.start_seconds;
                             }));
  EXPECT_EQ(records.front().name, "test.span.first");
  EXPECT_EQ(records.back().name, "test.span.third");
}

TEST_F(TracerTest, ChildClosesBeforeParentAndWithinIt) {
  {
    ScopedSpan outer("test.span.timing_outer");
    ScopedSpan inner("test.span.timing_inner");
  }
  const auto records = Tracer::global().records();
  const SpanRecord& outer = find(records, "test.span.timing_outer");
  const SpanRecord& inner = find(records, "test.span.timing_inner");
  EXPECT_GE(inner.start_seconds, outer.start_seconds);
  EXPECT_LE(inner.start_seconds + inner.duration_seconds,
            outer.start_seconds + outer.duration_seconds + 1e-9);
}

TEST_F(TracerTest, CapacityBoundsRecords) {
  // The tracer keeps the first 2^18 records; spans past the cap are not kept.
  const std::size_t cap = std::size_t{1} << 18;
  for (std::size_t i = 0; i <= cap; ++i) {
    ScopedSpan span("test.span.cap");
  }
  EXPECT_EQ(Tracer::global().records().size(), cap);
}

TEST_F(TracerTest, ThreadsGetIndependentSpanStacks) {
  std::thread worker([] {
    ScopedSpan root("test.span.worker_root");
    ScopedSpan child("test.span.worker_child");
  });
  worker.join();
  const auto records = Tracer::global().records();
  const SpanRecord& root = find(records, "test.span.worker_root");
  const SpanRecord& child = find(records, "test.span.worker_child");
  EXPECT_EQ(root.parent, -1);  // not parented to anything on this thread
  EXPECT_EQ(child.parent, static_cast<std::int64_t>(root.id));
  EXPECT_EQ(root.thread, child.thread);
}

TEST_F(TracerTest, TraceJsonIsValidChromeTraceFormat) {
  {
    ScopedSpan outer("test.span.json_outer");
    ScopedSpan inner("test.span.json_inner");
  }
  const auto records = Tracer::global().records();
  const json::Value doc = json::parse(trace_to_json(records));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), records.size());
  for (const json::Value& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    EXPECT_FALSE(e.at("name").as_string().empty());
  }
}

}  // namespace
}  // namespace ropus::obs
