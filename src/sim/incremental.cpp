#include "sim/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"
#include "slo/kernel.h"

namespace ropus::sim {

namespace {
obs::Counter& delta_verdicts_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_verdicts");
  return c;
}
obs::Counter& rebuilds_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.sum_rebuilds");
  return c;
}
obs::Counter& delta_probes_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_probes");
  return c;
}

constexpr std::size_t kCpuIndex = trace::attribute_index(trace::Attribute::kCpu);

/// Slots per block of a series flush: a block of one sum column (4 KiB)
/// stays in L1 while every queued series is applied to it.
constexpr std::size_t kFlushBlock = 512;

/// max(0, x[i]) over the `len` values at `x`, in four independent chains.
/// The sums it scans are finite and never -0.0 (they start at +0.0 and
/// only add and subtract), so the max does not depend on the order it is
/// taken in and has the bits of one running max.
double peak_of(const double* x, std::size_t len) {
  double m0 = 0.0;
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    m0 = std::max(m0, x[i]);
    m1 = std::max(m1, x[i + 1]);
    m2 = std::max(m2, x[i + 2]);
    m3 = std::max(m3, x[i + 3]);
  }
  for (; i < len; ++i) m0 = std::max(m0, x[i]);
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

/// sum[i] += series[i] for sign +1, -= for -1, over `len` slots. Called
/// with len == kFlushBlock, the loop has a fixed trip count over pointers
/// that cannot alias, which lets the compiler vectorize it at -O2.
inline void apply_run(double* __restrict sum,
                      const double* __restrict series, std::size_t len,
                      double sign) {
  if (sign > 0.0) {
    for (std::size_t i = 0; i < len; ++i) sum[i] += series[i];
  } else {
    for (std::size_t i = 0; i < len; ++i) sum[i] -= series[i];
  }
}

/// Applies every op's series to `sum` (skipping an op whose series is
/// empty), one block of kFlushBlock slots at a time: each block is zeroed
/// first when `zero` and takes every series while it sits in L1. Returns
/// max(0, sum[i]) over the result when `peak`, else 0. The sums are exact
/// on the 2^-20 grid, so the order the series arrive in does not change a
/// bit.
template <typename Ops, typename SeriesOf>
double apply_blocked(std::span<double> sum, bool zero, const Ops& ops,
                     SeriesOf series_of, bool peak) {
  const std::size_t n = sum.size();
  double out = 0.0;
  for (std::size_t b = 0; b < n; b += kFlushBlock) {
    double* const block = sum.data() + b;
    const std::size_t len = std::min(kFlushBlock, n - b);
    if (zero) std::fill_n(block, len, 0.0);
    for (const auto& op : ops) {
      const std::span<const double> series = series_of(op);
      if (series.empty()) continue;
      if (len == kFlushBlock) {
        apply_run(block, series.data() + b, kFlushBlock, op.sign);
      } else {
        apply_run(block, series.data() + b, len, op.sign);
      }
    }
    if (peak) out = std::max(out, peak_of(block, len));
  }
  return out;
}
}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const trace::Calendar& calendar,
                                           const qos::CosCommitment& cos2,
                                           std::vector<double> server_cpus)
    : calendar_(calendar), cos2_(cos2) {
  cos2_.validate();
  servers_.resize(server_cpus.size());
  for (std::size_t s = 0; s < server_cpus.size(); ++s) {
    ROPUS_REQUIRE(server_cpus[s] >= 0.0, "server capacity must be >= 0");
    servers_[s].cpus = server_cpus[s];
    servers_[s].sum1.assign(calendar_.size(), 0.0);
    servers_[s].sum2.assign(calendar_.size(), 0.0);
  }
}

void IncrementalEvaluator::register_workload(
    std::size_t id, const qos::AllocationTrace& alloc) {
  insert(id, alloc, nullptr);
}

void IncrementalEvaluator::register_workload(
    std::size_t id, const qos::WorkloadAllocations& alloc) {
  insert(id, alloc.cpu(), &alloc);
}

void IncrementalEvaluator::insert(std::size_t id,
                                  const qos::AllocationTrace& cpu,
                                  const qos::WorkloadAllocations* attributed) {
  ROPUS_REQUIRE(cpu.calendar() == calendar_,
                "workload calendar must match the engine calendar");
  ROPUS_REQUIRE(!registered(id), "workload id already registered");
  Workload w;
  w.cos1 = cpu.cos1();
  w.cos2 = cpu.cos2();
  w.peak_cos1 = cpu.peak_cos1();
  w.peaks[kCpuIndex] = cpu.peak_allocation();
  for (const trace::Attribute a : trace::kAllAttributes) {
    const trace::DemandTrace* t =
        attributed != nullptr ? attributed->attribute(a) : nullptr;
    if (t == nullptr) continue;
    const std::size_t k = trace::attribute_index(a);
    w.attributes[k] = t->values();
    w.peaks[k] = t->peak();
  }
  // The summed peaks of every registered workload bound every per-slot sum
  // a server (or a probe) can reach; keeping them below kSumLimit keeps all
  // engine arithmetic exact. The budget sums are exact below the limit, and
  // a sum that reaches it (or +inf) rounds to at least the limit, so the
  // check is too.
  AttributePeaks total = registered_;
  for (std::size_t k = 0; k < total.size(); ++k) {
    total[k] += w.peaks[k];
    ROPUS_REQUIRE(total[k] < grid::kSumLimit,
                  "registered workloads' summed peaks must stay below "
                  "grid::kSumLimit (2^33)");
  }

  const std::size_t n = calendar_.size();
  for (const trace::Attribute a : trace::kAllAttributes) {
    const std::size_t k = trace::attribute_index(a);
    if (w.attributes[k].empty() ||
        std::ranges::find(columns_, a) != columns_.end()) {
      continue;
    }
    // No hosted workload carries `a` yet, so zeros are its exact sums.
    columns_.insert(std::ranges::upper_bound(columns_, a), a);
    for (Server& s : servers_) s.columns[k].assign(n, 0.0);
  }
  if (id >= workloads_.size()) workloads_.resize(id + 1);
  w.active = true;
  workloads_[id] = w;
  registered_ = total;
}

void IncrementalEvaluator::unregister_workload(std::size_t id) {
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "cannot unregister a hosted workload");
  // A queued remove may still reference the workload's series; flush it
  // before the spans go away.
  for (Server& s : servers_) {
    if (std::ranges::any_of(s.pending,
                            [&](const PendingOp& op) { return op.id == id; })) {
      (void)ensure_sums(s);
    }
  }
  for (std::size_t k = 0; k < registered_.size(); ++k) {
    registered_[k] -= w.peaks[k];
  }
  workloads_[id] = Workload{};
}

const IncrementalEvaluator::Workload& IncrementalEvaluator::workload_checked(
    std::size_t id) const {
  ROPUS_REQUIRE(id < workloads_.size() && workloads_[id].active,
                "unknown workload id");
  return workloads_[id];
}

void IncrementalEvaluator::flush(Server& s, bool rebuild, bool peaks) {
  const std::vector<PendingOp>& ops = s.pending;
  const double peak1 = apply_blocked(
      s.sum1, rebuild, ops,
      [&](const PendingOp& op) { return workloads_[op.id].cos1; }, peaks);
  if (peaks) s.peak_cos1 = peak1;
  apply_blocked(
      s.sum2, rebuild, ops,
      [&](const PendingOp& op) { return workloads_[op.id].cos2; }, false);
  // A rebuild re-derives every column; otherwise only the columns some
  // queued workload carries change, and the others keep their peaks.
  for (const trace::Attribute a : columns_) {
    const std::size_t k = trace::attribute_index(a);
    const auto series_of = [&](const PendingOp& op) {
      return workloads_[op.id].attributes[k];
    };
    if (!rebuild && std::ranges::none_of(ops, [&](const PendingOp& op) {
          return !series_of(op).empty();
        })) {
      continue;
    }
    const double peak = apply_blocked(s.columns[k], rebuild, ops, series_of,
                                      peaks);
    if (peaks) s.peaks[k] = peak;
  }
}

void IncrementalEvaluator::queue_pending(Server& s, std::size_t id,
                                         double sign) {
  // At most one queued op can exist per id (a workload alternates between
  // hosted and unhosted), so an opposite op cancels exactly.
  for (auto it = s.pending.begin(); it != s.pending.end(); ++it) {
    if (it->id == id) {
      s.pending.erase(it);
      return;
    }
  }
  s.pending.push_back(PendingOp{id, sign});
}

void IncrementalEvaluator::add(std::size_t id, std::size_t server) {
  workload_checked(id);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host == npos, "workload already hosted");
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  Server& s = servers_[server];
  s.ids.insert(std::ranges::lower_bound(s.ids, id), id);
  queue_pending(s, id, +1.0);
  w.host = server;
}

void IncrementalEvaluator::remove(std::size_t id) {
  workload_checked(id);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host != npos, "workload not hosted");
  Server& s = servers_[w.host];
  const auto it = std::ranges::lower_bound(s.ids, id);
  ROPUS_REQUIRE(it != s.ids.end() && *it == id, "engine id set corrupted");
  s.ids.erase(it);
  queue_pending(s, id, -1.0);
  w.host = npos;
}

void IncrementalEvaluator::move(std::size_t id, std::size_t server) {
  if (host_of(id) == server) return;
  remove(id);
  add(id, server);
}

AggregateView IncrementalEvaluator::view_of(const Server& s) const {
  AggregateView v;
  v.calendar = &calendar_;
  v.cos1 = s.sum1;
  v.cos2 = s.sum2;
  v.sum_peak_cos1 = s.sum_peak_cos1;
  v.peak_cos1 = s.peak_cos1;
  v.workloads = s.ids.size();
  return v;
}

bool IncrementalEvaluator::ensure_sums(Server& s) {
  // Replaying a queue as long as the hosted set costs as much as starting
  // over: rebuild instead, as one add per hosted id onto zeroed sums.
  const bool rebuild = s.pending.size() >= s.ids.size();
  if (rebuild) {
    s.pending.clear();
    for (const std::size_t id : s.ids) s.pending.push_back(PendingOp{id, +1.0});
    s.sum_peak_cos1 = 0.0;
  }
  for (const PendingOp& op : s.pending) {
    s.sum_peak_cos1 += op.sign * workloads_[op.id].peak_cos1;
  }
  flush(s, rebuild, true);
  s.pending.clear();
  return rebuild;
}

IncrementalEvaluator::Verdict IncrementalEvaluator::verdict(
    std::size_t server) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  Server& s = servers_[server];
  if (ensure_sums(s)) {
    stats_.sum_rebuilds += 1;
    rebuilds_counter().add(1);
  } else {
    stats_.delta_verdicts += 1;
    delta_verdicts_counter().add(1);
  }
  return Verdict{required_capacity(view_of(s), s.cpus, cos2_),
                 s.peaks};
}

IncrementalEvaluator::Verdict IncrementalEvaluator::probe(std::size_t server,
                                                          std::size_t id,
                                                          std::int64_t max_k) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "probe requires an unhosted workload");
  Server& s = servers_[server];
  if (ensure_sums(s)) {
    stats_.sum_rebuilds += 1;
    rebuilds_counter().add(1);
  }
  stats_.delta_probes += 1;
  delta_probes_counter().add(1);
  // w goes in as a one-op flush, which sets the peaks with it in place,
  // and comes out as one with no peak scan: the subtraction returns every
  // slot to its saved bits, so the saved peaks are the peaks again.
  const double saved_sum_peak = s.sum_peak_cos1;
  const double saved_peak = s.peak_cos1;
  const AttributePeaks saved_peaks = s.peaks;
  s.pending.push_back(PendingOp{id, +1.0});
  s.sum_peak_cos1 += w.peak_cos1;
  flush(s, false, true);
  AggregateView v = view_of(s);
  v.workloads = s.ids.size() + 1;
  const Verdict out{required_capacity(v, s.cpus, cos2_, max_k), s.peaks};
  s.pending.front().sign = -1.0;
  flush(s, false, false);
  s.pending.clear();
  s.sum_peak_cos1 = saved_sum_peak;
  s.peak_cos1 = saved_peak;
  s.peaks = saved_peaks;
  return out;
}

const std::vector<double>& IncrementalEvaluator::group_cos2(Workload& w) {
  if (w.group_cos2.empty()) {
    const std::size_t spd = calendar_.slots_per_day();
    w.group_cos2.assign(calendar_.weeks() * spd, 0.0);
    for (std::size_t day = 0; day < w.cos2.size(); day += spd) {
      double* const groups =
          w.group_cos2.data() + calendar_.week_of(day) * spd;
      const double* const slots = w.cos2.data() + day;
      for (std::size_t t = 0; t < spd; ++t) groups[t] += slots[t];
    }
  }
  return w.group_cos2;
}

double IncrementalEvaluator::probe_bound(std::size_t server, std::size_t id) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  workload_checked(id);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host == npos, "probe requires an unhosted workload");
  const Server& s = servers_[server];
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // required_capacity's range check, so that a caller probing only where
  // the bound allows is refused as a probe would be.
  ROPUS_REQUIRE(s.cpus * static_cast<double>(calendar_.size()) <
                    grid::kSumLimit,
                "capacity limit times calendar length must stay below "
                "grid::kSumLimit");
  // Every sum below is exact on the grid, so it has the bits of the sums
  // the probe's search reads, whatever order it is taken in.
  double sum_peak = w.peak_cos1;
  double peak = w.peak_cos1;
  std::vector<double> requested = group_cos2(w);
  for (const std::size_t h : s.ids) {
    Workload& hosted = workloads_[h];
    sum_peak += hosted.peak_cos1;
    peak = std::max(peak, hosted.peak_cos1);
    const std::vector<double>& sums = group_cos2(hosted);
    for (std::size_t g = 0; g < requested.size(); ++g) {
      requested[g] += sums[g];
    }
  }
  // The search's §VI-A precheck.
  if (sum_peak > s.cpus + slo::kCapacityEps) return kInf;
  // No grid point up to the theta bound holds the group of the largest
  // request, and neither does a replay at a capacity at or below it
  // (docs/algorithms.md §5), so past the server's last grid point nothing
  // fits.
  const std::int64_t theta_k = slo::theta_group_bound(
      *std::ranges::max_element(requested), trace::Calendar::kDaysPerWeek,
      cos2_.theta, kCapacityStep);
  if (theta_k > static_cast<std::int64_t>(std::floor(s.cpus / kCapacityStep))) {
    return kInf;
  }
  // Every grid answer is at or above both indices; the answer at an
  // off-grid capacity is the capacity itself.
  const auto peak_k =
      static_cast<std::int64_t>(std::ceil(peak / kCapacityStep));
  return std::min(static_cast<double>(std::max(theta_k, peak_k)) *
                      kCapacityStep,
                  s.cpus);
}

}  // namespace ropus::sim
