#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace ropus::stats {
namespace {

TEST(Summarize, EmptySampleIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Summarize, BasicMoments) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Quantile, EmptyThrows) {
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
}

TEST(Quantile, OutOfRangeThrows) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile(v, -0.1), InvalidArgument);
  EXPECT_THROW(quantile(v, 1.1), InvalidArgument);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 7.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Percentile, MatchesQuantile) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 97.0), quantile(v, 0.97));
  EXPECT_THROW(percentile(v, 101.0), InvalidArgument);
}

TEST(Quantiles, BatchMatchesSingle) {
  const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const std::vector<double> qs{0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<double> batch = quantiles(v, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], quantile(v, qs[i])) << "q=" << qs[i];
  }
}

/// quantile_upper by a full sort: the smallest 0-based index k with
/// (k + 1) / n >= q, with the same 1e-9 guard against q * n landing a hair
/// above an integer.
double quantile_upper_by_sort(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size()) - 1.0;
  const std::size_t k =
      target <= 0.0 ? 0 : static_cast<std::size_t>(std::ceil(target - 1e-9));
  return v[std::min(k, v.size() - 1)];
}

TEST(QuantileUpper, MatchesFullSortOracleOnTiedSamples) {
  const double qs[] = {0.0, 1e-12, 0.03, 0.5, 0.97, 1.0};
  Rng rng(2006);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  sizes.push_back(8064);  // four weeks of 5-minute samples
  for (const std::size_t n : sizes) {
    for (int round = 0; round < 4; ++round) {
      // Heavy ties: values from a handful of levels, zero among them.
      const std::size_t levels = 1 + rng.uniform_index(round == 0 ? 3 : 9);
      std::vector<double> v(n);
      for (double& x : v) {
        x = 0.25 * static_cast<double>(rng.uniform_index(levels));
      }
      for (const double q : qs) {
        const double x = quantile_upper(v, q);
        EXPECT_EQ(x, quantile_upper_by_sort(v, q))
            << "n=" << n << " round=" << round << " q=" << q;
        // The documented guarantee: #{v > x} <= (1 - q) * n.
        const auto above = std::count_if(
            v.begin(), v.end(), [x](double y) { return y > x; });
        EXPECT_LE(static_cast<double>(above),
                  (1.0 - q) * static_cast<double>(n) + 1e-9)
            << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(QuantileUpper, SignedZerosCompareEqualToTheSortedAnswer) {
  // With -0.0 and +0.0 both present the order statistic is a zero whose
  // sign is unspecified; its value is the sort's. trace::DemandTrace stores
  // no -0.0, so translations never meet the ambiguity (its test pins that).
  const std::vector<double> v{0.0, -0.0, 3.0, -0.0, 0.0, 1.0, -0.0, 0.0};
  for (const double q : {0.0, 0.25, 0.5, 0.75}) {
    EXPECT_EQ(quantile_upper(v, q), 0.0) << q;
    EXPECT_EQ(quantile_upper(v, q), quantile_upper_by_sort(v, q)) << q;
  }
  EXPECT_EQ(quantile_upper(v, 1.0), 3.0);
}

TEST(QuantileUpper, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW(quantile_upper({}, 0.5), InvalidArgument);
  const std::vector<double> v{1.0};
  EXPECT_THROW(quantile_upper(v, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_upper(v, 1.1), InvalidArgument);
}

TEST(MaxValue, ThrowsOnEmpty) {
  EXPECT_THROW(max_value({}), InvalidArgument);
}

}  // namespace
}  // namespace ropus::stats
