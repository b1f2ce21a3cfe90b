#include "sim/incremental.h"

#include <algorithm>

#include "common/error.h"
#include "common/grid.h"
#include "obs/metrics.h"

namespace ropus::sim {

namespace {
obs::Counter& cache_hits_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.verdict_cache_hits");
  return c;
}
obs::Counter& delta_verdicts_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_verdicts");
  return c;
}
obs::Counter& rebuilds_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.sum_rebuilds");
  return c;
}
obs::Counter& fallbacks_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.batch_fallbacks");
  return c;
}
obs::Counter& delta_probes_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.delta_probes");
  return c;
}
obs::Counter& batch_probes_counter() {
  static obs::Counter& c = obs::counter("sim.incremental.batch_probes");
  return c;
}
}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const trace::Calendar& calendar,
                                           const qos::CosCommitment& cos2,
                                           std::vector<double> server_cpus,
                                           double tolerance)
    : calendar_(calendar),
      cos2_(cos2),
      tolerance_(tolerance),
      exact_limit_(grid::kSumLimit) {
  cos2_.validate();
  ROPUS_REQUIRE(tolerance > 0.0, "tolerance must be > 0");
  servers_.resize(server_cpus.size());
  for (std::size_t s = 0; s < server_cpus.size(); ++s) {
    ROPUS_REQUIRE(server_cpus[s] >= 0.0, "server capacity must be >= 0");
    servers_[s].cpus = server_cpus[s];
    servers_[s].sum1.assign(calendar_.size(), 0.0);
    servers_[s].sum2.assign(calendar_.size(), 0.0);
    servers_[s].sums_valid = true;  // an empty server's sums are zero
  }
}

void IncrementalEvaluator::register_workload(std::size_t id,
                                             std::span<const double> cos1,
                                             std::span<const double> cos2) {
  ROPUS_REQUIRE(cos1.size() == calendar_.size() &&
                    cos2.size() == calendar_.size(),
                "workload series must match the engine calendar");
  if (id >= workloads_.size()) workloads_.resize(id + 1);
  Workload& w = workloads_[id];
  ROPUS_REQUIRE(w.host == npos, "cannot re-register a hosted workload");
  w.cos1 = cos1;
  w.cos2 = cos2;
  w.peak_cos1 = 0.0;
  w.peak_total = 0.0;
  w.on_grid = true;
  for (std::size_t i = 0; i < cos1.size(); ++i) {
    w.peak_cos1 = std::max(w.peak_cos1, cos1[i]);
    w.peak_total = std::max(w.peak_total, cos1[i] + cos2[i]);
    if (!grid::on_grid(cos1[i]) || !grid::on_grid(cos2[i])) w.on_grid = false;
  }
  w.active = true;
}

void IncrementalEvaluator::unregister_workload(std::size_t id) {
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "cannot unregister a hosted workload");
  // A queued remove may still reference the workload's series; flush any
  // server holding one before the spans go away.
  for (Server& s : servers_) {
    for (const PendingOp& op : s.pending) {
      if (op.id == id) {
        (void)ensure_sums(s);
        break;
      }
    }
  }
  workloads_[id] = Workload{};
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
  if (s.sums_valid && w.on_grid && s.off_grid == 0 &&
      s.sum_peak_total + w.peak_total <= exact_limit_) {
    queue_pending(s, id, +1.0);
  } else {
    s.sums_valid = false;
    s.pending.clear();
  }
  if (!w.on_grid) s.off_grid += 1;
  s.sum_peak_total += w.peak_total;
  s.verdict_valid = false;
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
  if (s.sums_valid) {
    // sums_valid implies every hosted workload (including this one) is
    // on-grid and in budget, so the queued subtraction is an exact inverse.
    queue_pending(s, id, -1.0);
  }
  if (!w.on_grid) s.off_grid -= 1;
  s.sum_peak_total -= w.peak_total;
  s.verdict_valid = false;
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
  s.sum_peak_cos1 = 0.0;
  s.peak_cos1 = 0.0;
  for (const std::size_t id : s.ids) {
    const Workload& w = workloads_[id];
    apply_series(s, w, +1.0);
    s.sum_peak_cos1 += w.peak_cos1;
  }
  s.pending.clear();
  s.sums_valid = true;
}

bool IncrementalEvaluator::ensure_sums(Server& s) {
  if (!s.sums_valid || s.pending.size() >= s.ids.size()) {
    // Sums are gone, or replaying the queue costs as much as starting
    // over — rebuild in one pass.
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

RequiredCapacity IncrementalEvaluator::batch_verdict(const Server& s,
                                                     const Workload* extra) {
  // Full re-aggregation in ascending-id order — exactly what the batch
  // oracle does for this hosted set — into scratch buffers, leaving the
  // server's own (stale) sums untouched.
  const std::size_t n = calendar_.size();
  scratch1_.assign(n, 0.0);
  scratch2_.assign(n, 0.0);
  double sum_peak_cos1 = 0.0;
  const std::size_t extra_id =
      extra != nullptr ? static_cast<std::size_t>(extra - workloads_.data())
                       : npos;
  bool extra_done = extra == nullptr;
  const auto accumulate = [&](const Workload& w) {
    const double* const c1 = w.cos1.data();
    const double* const c2 = w.cos2.data();
    for (std::size_t i = 0; i < n; ++i) {
      scratch1_[i] += c1[i];
      scratch2_[i] += c2[i];
    }
    sum_peak_cos1 += w.peak_cos1;
  };
  for (const std::size_t id : s.ids) {
    if (!extra_done && extra_id < id) {
      accumulate(*extra);
      extra_done = true;
    }
    accumulate(workloads_[id]);
  }
  if (!extra_done) accumulate(*extra);
  double peak = 0.0;
  for (std::size_t i = 0; i < n; ++i) peak = std::max(peak, scratch1_[i]);

  AggregateView v;
  v.calendar = &calendar_;
  v.cos1 = scratch1_;
  v.cos2 = scratch2_;
  v.sum_peak_cos1 = sum_peak_cos1;
  v.peak_cos1 = peak;
  v.workloads = s.ids.size() + (extra != nullptr ? 1 : 0);
  return required_capacity(v, s.cpus, cos2_, tolerance_);
}

const RequiredCapacity& IncrementalEvaluator::verdict(std::size_t server) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  Server& s = servers_[server];
  if (s.verdict_valid) {
    stats_.verdict_cache_hits += 1;
    cache_hits_counter().add(1);
    return s.verdict;
  }
  if (delta_eligible(s)) {
    if (ensure_sums(s)) {
      stats_.sum_rebuilds += 1;
      rebuilds_counter().add(1);
    } else {
      stats_.delta_verdicts += 1;
      delta_verdicts_counter().add(1);
    }
    s.verdict = required_capacity(view_of(s), s.cpus, cos2_, tolerance_);
  } else {
    stats_.batch_fallbacks += 1;
    fallbacks_counter().add(1);
    s.verdict = batch_verdict(s, nullptr);
  }
  s.verdict_valid = true;
  return s.verdict;
}

RequiredCapacity IncrementalEvaluator::probe(std::size_t server,
                                             std::size_t id) {
  ROPUS_REQUIRE(server < servers_.size(), "server index out of range");
  const Workload& w = workload_checked(id);
  ROPUS_REQUIRE(w.host == npos, "probe requires an unhosted workload");
  Server& s = servers_[server];
  if (w.on_grid && delta_eligible(s) &&
      s.sum_peak_total + w.peak_total <= exact_limit_) {
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
    const RequiredCapacity out = required_capacity(v, s.cpus, cos2_, tolerance_);
    // Exact restore: the subtraction returns every slot (and hence the
    // recomputed peak) to its previous bits.
    apply_series(s, w, -1.0);
    s.sum_peak_cos1 = saved_sum_peak;
    return out;
  }
  stats_.batch_probes += 1;
  batch_probes_counter().add(1);
  return batch_verdict(s, &w);
}

}  // namespace ropus::sim
