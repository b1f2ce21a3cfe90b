#include "slo/kernel.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace ropus::slo {

namespace {
/// Slots per run of the floors' contiguous loops. A run of fixed length
/// over pointers that cannot alias lets the compiler vectorize the loop at
/// -O2; the helpers below take `len` so the last, shorter run shares them.
constexpr std::size_t kRun = 16;

/// Adds `len` consecutive slots' requested and satisfied CoS2 at
/// `capacity` to the sums of their groups, one group per slot.
inline void add_group_sums(double* __restrict requested,
                           double* __restrict satisfied,
                           const double* __restrict cos1,
                           const double* __restrict cos2, std::size_t len,
                           double capacity) {
  for (std::size_t t = 0; t < len; ++t) {
    requested[t] += cos2[t];
    satisfied[t] += satisfied_cos2(capacity, cos1[t], cos2[t]);
  }
}

/// The number of `len` consecutive slots that defer CoS2 at `capacity`,
/// i.e. that satisfy less than their own CoS2: a count rather than a
/// bool, so that the loop vectorizes.
inline double deferring(const double* __restrict cos1,
                        const double* __restrict cos2, std::size_t len,
                        double capacity) {
  double count = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    count += satisfied_cos2(capacity, cos1[t], cos2[t]) == cos2[t] ? 0.0 : 1.0;
  }
  return count;
}
}  // namespace

bool BandCounts::satisfies(const Band& band, double slack_percent) const {
  if (violating > 0) return false;
  if (degraded_fraction() * 100.0 > band.m_degr_percent() + slack_percent) {
    return false;
  }
  if (band.t_degr_minutes > 0.0 &&
      longest_degraded_minutes > band.t_degr_minutes) {
    return false;
  }
  return true;
}

BandCounts accumulate_bands(std::span<const double> demand,
                            std::span<const double> granted, const Band& band,
                            double minutes_per_sample) {
  ROPUS_REQUIRE(granted.size() == demand.size(),
                "grants and demand must align");
  ROPUS_REQUIRE(minutes_per_sample > 0.0, "sample interval must be > 0");
  BandAccumulator acc(minutes_per_sample);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    acc.observe(demand[i], granted[i], band);
  }
  return acc.counts();
}

ThetaAccumulator::ThetaAccumulator(std::size_t slots_per_day)
    : slots_per_day_(slots_per_day) {
  ROPUS_REQUIRE(slots_per_day > 0, "slots_per_day must be > 0");
}

ThetaAccumulator::ThetaAccumulator(std::size_t weeks,
                                   std::size_t slots_per_day)
    : ThetaAccumulator(slots_per_day) {
  requested_.assign(weeks * slots_per_day, 0.0);
  satisfied_.assign(weeks * slots_per_day, 0.0);
}

void ThetaAccumulator::add(std::size_t slot, double requested,
                           double satisfied) {
  const std::size_t group = group_of(slot);
  if (group >= requested_.size()) {
    requested_.resize(group + 1, 0.0);
    satisfied_.resize(group + 1, 0.0);
  }
  requested_[group] += requested;
  satisfied_[group] += satisfied;
}

double ThetaAccumulator::theta() const {
  double theta = 1.0;
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    theta = std::min(theta, satisfied_[g] / requested_[g]);
  }
  return theta;
}

ThetaAccumulator::Worst ThetaAccumulator::worst() const {
  Worst worst;
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    const double ratio = satisfied_[g] / requested_[g];
    if (ratio < worst.theta) {
      worst.theta = ratio;
      worst.group = g;
    }
  }
  return worst;
}

void ThetaAccumulator::restore(std::span<const double> requested,
                               std::span<const double> satisfied) {
  ROPUS_REQUIRE(requested.size() == satisfied.size(),
                "theta state spans must align");
  requested_.assign(requested.begin(), requested.end());
  satisfied_.assign(satisfied.begin(), satisfied.end());
}

std::vector<double> ThetaAccumulator::ratios() const {
  std::vector<double> out(requested_.size(), 1.0);
  for (std::size_t g = 0; g < requested_.size(); ++g) {
    if (requested_[g] <= 0.0) continue;
    out[g] = satisfied_[g] / requested_[g];
  }
  return out;
}

std::int64_t theta_group_bound(double requested, std::size_t days,
                               double theta, double step) {
  const double q = theta * requested / (static_cast<double>(days) * step);
  // Past 2^50 the quotient's rounding could exceed the one-step slack;
  // the cap is far above any capacity the search can reach.
  return static_cast<std::int64_t>(std::floor(q < 0x1p50 ? q : 0x1p50)) - 1;
}

GridFloor theta_floor(std::span<const double> cos1,
                      std::span<const double> cos2, std::size_t slots_per_day,
                      double theta, double step, std::int64_t k_min,
                      std::int64_t k_max) {
  ROPUS_REQUIRE(cos1.size() == cos2.size(), "floor series must align");
  ROPUS_REQUIRE(slots_per_day > 0, "slots_per_day must be > 0");
  ROPUS_REQUIRE(step > 0.0, "grid step must be > 0");
  GridFloor floor{k_min};
  const std::size_t n = cos1.size();
  const std::size_t week = kDaysPerWeek * slots_per_day;
  // One week's per-group sums, at the floor the week starts with.
  std::vector<double> requested(slots_per_day);
  std::vector<double> satisfied(slots_per_day);
  for (std::size_t w = 0; w < n; w += week) {
    const std::size_t end = std::min(n, w + week);
    const std::size_t groups = std::min(slots_per_day, end - w);
    const std::int64_t week_k = floor.k;
    const double week_capacity = static_cast<double>(week_k) * step;
    // Day by day over contiguous slots: each group still gets its members
    // in slot order, as ThetaAccumulator adds them in a replay.
    std::fill(requested.begin(), requested.end(), 0.0);
    std::fill(satisfied.begin(), satisfied.end(), 0.0);
    for (std::size_t day = w; day < end; day += slots_per_day) {
      const std::size_t len = std::min(slots_per_day, end - day);
      std::size_t t = 0;
      for (; t + kRun <= len; t += kRun) {
        add_group_sums(requested.data() + t, satisfied.data() + t,
                       cos1.data() + day + t, cos2.data() + day + t, kRun,
                       week_capacity);
      }
      add_group_sums(requested.data() + t, satisfied.data() + t,
                     cos1.data() + day + t, cos2.data() + day + t, len - t,
                     week_capacity);
    }
    // No group holds at or below its bound, so the group of the week's
    // largest request holds nowhere up to the bound of that request over
    // the week's most members. Lifting the floor there (k_max at most)
    // leaves that group failing, so k, raised and where come out as from
    // the week's start (docs/algorithms.md §5); a group that fails at the
    // start is first checked at the lifted floor, below.
    const double most = *std::max_element(
        requested.begin(),
        requested.begin() + static_cast<std::ptrdiff_t>(groups));
    floor.k = std::max(
        floor.k,
        std::min(k_max, theta_group_bound(
                            most, (end - w + slots_per_day - 1) / slots_per_day,
                            theta, step)));
    for (std::size_t t = 0; t < groups; ++t) {
      // ThetaAccumulator::theta() skips groups with nothing requested and
      // lowers theta only on a ratio below it, hence `!(ratio < theta)`.
      if (!(requested[t] > 0.0)) continue;
      // A group's ratio is nondecreasing in the capacity, so a group that
      // holds at the week's starting floor holds at every higher one.
      if (!(satisfied[t] / requested[t] < theta)) continue;
      const std::size_t first = w + t;
      const auto holds = [&](std::int64_t k) {
        const double capacity = static_cast<double>(k) * step;
        double sum = 0.0;
        for (std::size_t i = first; i < end; i += slots_per_day) {
          sum += satisfied_cos2(capacity, cos1[i], cos2[i]);
        }
        return !(sum / requested[t] < theta);
      };
      // The bound, or an earlier group of the week, may have lifted the
      // floor already.
      if (floor.k > week_k && holds(floor.k)) continue;
      floor.k = first_passing(floor.k, k_max, holds);
      floor.raised = true;
      floor.where = (w / week) * slots_per_day + t;
      if (floor.k > k_max) return floor;
    }
  }
  return floor;
}

void DeferralQueue::drain(double spare) {
  while (spare > 0.0 && !entries_.empty()) {
    Entry& front = entries_.front();
    const double served = std::min(spare, front.remaining);
    front.remaining -= served;
    total_ -= served;
    spare -= served;
    if (front.remaining <= kCapacityEps) {
      total_ = std::max(0.0, total_);
      entries_.pop_front();
    }
  }
}

void DeferralQueue::defer(std::size_t slot, double deficit) {
  if (deficit > kCapacityEps) {
    entries_.push_back(Entry{slot, deficit});
    total_ += deficit;
  }
}

void DeferralQueue::restore(std::span<const Entry> entries, double total) {
  entries_.assign(entries.begin(), entries.end());
  total_ = total;
}

GridFloor deadline_floor(std::span<const double> cos1,
                         std::span<const double> cos2,
                         std::size_t deadline_slots, double step,
                         std::int64_t k_min, std::int64_t k_max) {
  ROPUS_REQUIRE(cos1.size() == cos2.size(), "floor series must align");
  ROPUS_REQUIRE(step > 0.0, "grid step must be > 0");
  GridFloor floor{k_min};
  const std::size_t n = cos1.size();
  // Only deferrals whose deadline falls inside the series are checked.
  if (deadline_slots >= n) return floor;
  const std::size_t last = n - 1 - deadline_slots;
  // Slot t's CoS2 deferred minus the capacity it leaves over at
  // `capacity`, as a replay computes them. At most one of the two is
  // nonzero, so the spare is max(0, -net).
  const auto net = [&](std::size_t t, double capacity) {
    const double served = satisfied_cos2(capacity, cos1[t], cos2[t]);
    return (cos2[t] - served) -
           (std::max(0.0, capacity - cos1[t]) - served);
  };
  const auto spare = [&](std::size_t t, double capacity) {
    return std::max(0.0, -net(t, capacity));
  };
  // The spare capacity of slots j+1..j+deadline_slots.
  const auto window_spare = [&](std::size_t j, double capacity) {
    double sum = 0.0;
    for (std::size_t t = j + 1; t <= j + deadline_slots; ++t) {
      sum += spare(t, capacity);
    }
    return sum;
  };

  double capacity = static_cast<double>(floor.k) * step;
  double backlog = 0.0;   // Lindley backlog after slot j at `capacity`
  std::size_t start = 0;  // first slot of the busy period holding it
  double window = 0.0;    // window_spare(at, capacity)
  std::size_t at = n;     // n: no window yet
  for (std::size_t j = 0; j <= last; ++j) {
    if (backlog <= 0.0) {
      // Nothing is queued, and a slot that serves all of its own CoS2
      // defers nothing, so the queue stays empty through it.
      while (j + kRun <= last + 1 &&
             deferring(cos1.data() + j, cos2.data() + j, kRun, capacity) ==
                 0.0) {
        j += kRun;
      }
      while (j <= last &&
             satisfied_cos2(capacity, cos1[j], cos2[j]) == cos2[j]) {
        ++j;
      }
      if (j > last) break;
      // A busy period opens at j. Its window is an exact sum, so sliding
      // the last one forward and summing afresh give the same bits. Slide
      // when that touches fewer slots, which keeps the pass O(n) however
      // long the deadline.
      if (at < j && 2 * (j - at) < deadline_slots) {
        for (std::size_t t = at + 1; t <= j; ++t) {
          window += spare(t + deadline_slots, capacity);
          window -= spare(t, capacity);
        }
      } else {
        window = window_spare(j, capacity);
      }
      start = j;
      backlog = net(j, capacity);
    } else {
      const double net_j = net(j, capacity);
      window += spare(j + deadline_slots, capacity);
      window -= std::max(0.0, -net_j);
      backlog = std::max(0.0, backlog + net_j);
    }
    at = j;
    while (backlog > 0.0 && backlog > window) {
      // Counted from `start` without the clamp at zero, the busy period's
      // backlog is a lower bound on the backlog at any higher capacity:
      // lift k until that bound fits.
      floor.k = first_passing(floor.k, k_max, [&](std::int64_t k) {
        const double c = static_cast<double>(k) * step;
        double bound = 0.0;
        for (std::size_t t = start; t <= j; ++t) bound += net(t, c);
        return bound <= window_spare(j, c);
      });
      floor.raised = true;
      floor.where = j;
      if (floor.k > k_max) return floor;
      // The queue was empty before `start` at the lower capacity, so it is
      // at this one: re-run the busy period from there.
      capacity = static_cast<double>(floor.k) * step;
      const std::size_t from = start;
      backlog = 0.0;
      for (std::size_t t = from; t <= j; ++t) {
        if (backlog <= 0.0) start = t;
        backlog = std::max(0.0, backlog + net(t, capacity));
      }
      floor.backlog = backlog;
      window = window_spare(j, capacity);
    }
  }
  return floor;
}

bool DeferralQueue::overdue_at_end(std::size_t trace_size) const {
  for (const Entry& e : entries_) {
    if (e.created + deadline_slots_ < trace_size &&
        e.remaining > kCapacityEps) {
      return true;
    }
  }
  return false;
}

}  // namespace ropus::slo
