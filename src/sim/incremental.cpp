#include "sim/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"

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

/// The exactness contract for one value: finite and on the 2^-20 grid.
bool exact_value(double v) { return std::isfinite(v) && grid::on_grid(v); }

constexpr std::size_t kCpuIndex = trace::attribute_index(trace::Attribute::kCpu);
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

void IncrementalEvaluator::register_workload(std::size_t id,
                                             std::span<const double> cos1,
                                             std::span<const double> cos2,
                                             const AttributeSeries& attributes) {
  const std::size_t n = calendar_.size();
  ROPUS_REQUIRE(cos1.size() == n && cos2.size() == n,
                "workload series must match the engine calendar");
  ROPUS_REQUIRE(attributes[kCpuIndex].empty(),
                "CPU is registered as cos1/cos2, not as an attribute");
  const bool replacing = registered(id);
  ROPUS_REQUIRE(!replacing || workloads_[id].host == npos,
                "cannot re-register a hosted workload");

  // Validate everything before touching engine state, so a refusal leaves
  // the engine exactly as it was.
  Workload w;
  w.cos1 = cos1;
  w.cos2 = cos2;
  w.attributes = attributes;
  for (std::size_t i = 0; i < n; ++i) {
    ROPUS_REQUIRE(exact_value(cos1[i]) && exact_value(cos2[i]),
                  "allocation values must be finite multiples of 2^-20");
    w.peak_cos1 = std::max(w.peak_cos1, cos1[i]);
    w.magnitude[kCpuIndex] = std::max(w.magnitude[kCpuIndex],
                                      std::abs(cos1[i]) + std::abs(cos2[i]));
  }
  for (const trace::Attribute a : trace::kAllAttributes) {
    const std::size_t k = trace::attribute_index(a);
    if (attributes[k].empty()) continue;
    ROPUS_REQUIRE(attributes[k].size() == n,
                  "attribute series must match the engine calendar");
    for (const double v : attributes[k]) {
      ROPUS_REQUIRE(exact_value(v),
                    "attribute values must be finite multiples of 2^-20");
      w.magnitude[k] = std::max(w.magnitude[k], std::abs(v));
    }
  }
  // The summed peaks of every registered workload bound every per-slot sum
  // a server (or a probe) can reach; keeping them below kSumLimit keeps all
  // engine arithmetic exact. The budget sums are exact below the limit, and
  // a sum that reaches it rounds to at least the limit, so the check is too.
  AttributePeaks total = registered_;
  for (std::size_t k = 0; k < total.size(); ++k) {
    if (replacing) total[k] -= workloads_[id].magnitude[k];
    total[k] += w.magnitude[k];
    ROPUS_REQUIRE(total[k] < grid::kSumLimit,
                  "registered workloads' summed peaks must stay below "
                  "grid::kSumLimit (2^33)");
  }

  // A queued op still references the old series; apply it first.
  if (replacing) flush_pending_of(id);
  for (const trace::Attribute a : trace::kAllAttributes) {
    const std::size_t k = trace::attribute_index(a);
    if (attributes[k].empty() ||
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
  flush_pending_of(id);
  for (std::size_t k = 0; k < registered_.size(); ++k) {
    registered_[k] -= w.magnitude[k];
  }
  workloads_[id] = Workload{};
}

void IncrementalEvaluator::flush_pending_of(std::size_t id) {
  for (Server& s : servers_) {
    for (const PendingOp& op : s.pending) {
      if (op.id == id) {
        (void)ensure_sums(s);
        break;
      }
    }
  }
}

const IncrementalEvaluator::Workload& IncrementalEvaluator::workload_checked(
    std::size_t id) const {
  ROPUS_REQUIRE(id < workloads_.size() && workloads_[id].active,
                "unknown workload id");
  return workloads_[id];
}

void IncrementalEvaluator::apply_series(Server& s, const Workload& w,
                                        double sign) {
  const std::size_t n = calendar_.size();
  double* const a1 = s.sum1.data();
  double* const a2 = s.sum2.data();
  const double* const c1 = w.cos1.data();
  const double* const c2 = w.cos2.data();
  // Every slot is touched, so the running max over the pass IS the new
  // aggregate CoS1 peak — and after an exact remove it lands back on the
  // previous bits, because the sums do.
  double peak = 0.0;
  if (sign > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] += c1[i];
      a2[i] += c2[i];
      peak = std::max(peak, a1[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] -= c1[i];
      a2[i] -= c2[i];
      peak = std::max(peak, a1[i]);
    }
  }
  s.peak_cos1 = peak;
  // The columns w carries, the same way; the others keep their peaks.
  for (const trace::Attribute a : columns_) {
    const std::size_t k = trace::attribute_index(a);
    const std::span<const double> series = w.attributes[k];
    if (series.empty()) continue;
    double* const col = s.columns[k].data();
    double col_peak = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      col[i] += sign * series[i];
      col_peak = std::max(col_peak, col[i]);
    }
    s.peaks[k] = col_peak;
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

void IncrementalEvaluator::rebuild_sums(Server& s) {
  std::fill(s.sum1.begin(), s.sum1.end(), 0.0);
  std::fill(s.sum2.begin(), s.sum2.end(), 0.0);
  for (const trace::Attribute a : columns_) {
    std::vector<double>& col = s.columns[trace::attribute_index(a)];
    std::fill(col.begin(), col.end(), 0.0);
  }
  s.sum_peak_cos1 = 0.0;
  s.peak_cos1 = 0.0;
  s.peaks = {};
  for (const std::size_t id : s.ids) {
    const Workload& w = workloads_[id];
    apply_series(s, w, +1.0);
    s.sum_peak_cos1 += w.peak_cos1;
  }
  s.pending.clear();
}

bool IncrementalEvaluator::ensure_sums(Server& s) {
  if (s.pending.size() >= s.ids.size()) {
    // Replaying the queue costs as much as starting over — rebuild in one
    // pass.
    rebuild_sums(s);
    return true;
  }
  for (const PendingOp& op : s.pending) {
    const Workload& w = workloads_[op.id];
    apply_series(s, w, op.sign);
    s.sum_peak_cos1 += op.sign * w.peak_cos1;
  }
  s.pending.clear();
  return false;
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
                                                          std::size_t id) {
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
  const double saved_sum_peak = s.sum_peak_cos1;
  apply_series(s, w, +1.0);
  s.sum_peak_cos1 += w.peak_cos1;
  AggregateView v = view_of(s);
  v.workloads = s.ids.size() + 1;
  const Verdict out{required_capacity(v, s.cpus, cos2_), s.peaks};
  // Exact restore: the subtraction returns every slot (and hence every
  // recomputed peak) to its previous bits.
  apply_series(s, w, -1.0);
  s.sum_peak_cos1 = saved_sum_peak;
  return out;
}

}  // namespace ropus::sim
