#include "harness.h"

#include <chrono>
#include <cstring>
#include <ctime>

#include "common/stats.h"
#include "workload/fleet.h"
#include "workload/generator.h"

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : ropus::stats::quantile_upper(values, q);
}

double median(const std::vector<double>& values) {
  return values.empty() ? 0.0 : ropus::stats::quantile(values, 0.5);
}

Digest& Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  // Length separator, so ("ab","c") and ("a","bc") differ.
  return add(static_cast<std::uint64_t>(bytes.size()));
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
  return *this;
}

void Checks::op(bool ok, const std::string& detail) {
  attempted_ += 1;
  if (ok) return;
  failed_ += 1;
  if (failures_.size() < 8) failures_.push_back(detail);
}

std::vector<ropus::workload::Profile> replica_profiles(std::size_t replicas) {
  const std::vector<ropus::workload::Profile> base =
      ropus::workload::case_study_profiles();
  if (replicas == 1) return base;
  std::vector<ropus::workload::Profile> out;
  out.reserve(base.size() * replicas);
  for (std::size_t k = 0; k < replicas; ++k) {
    for (ropus::workload::Profile p : base) {
      p.name += "-r" + std::to_string(k);
      out.push_back(std::move(p));
    }
  }
  return out;
}

ropus::qos::Requirement paper_requirement(
    double m_percent, std::optional<double> t_degr_minutes) {
  ropus::qos::Requirement r;
  r.m_percent = m_percent;
  r.t_degr_minutes = t_degr_minutes;
  return r;
}

std::vector<ropus::trace::DemandTrace> generate_fleet(
    const std::vector<ropus::workload::Profile>& profiles, std::size_t weeks,
    std::uint64_t seed) {
  return ropus::workload::generate_all(
      profiles, ropus::trace::Calendar::standard(weeks), seed);
}

}  // namespace perfbench
