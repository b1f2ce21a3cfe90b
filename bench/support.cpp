#include "support.h"

#include <cstdlib>

#include "common/file_io.h"
#include "common/json.h"
#include "obs/manifest.h"
#include "qos/translation.h"
#include "workload/fleet.h"
#include "workload/generator.h"

namespace ropus::bench {

std::size_t weeks_from_env() {
  if (const char* env = std::getenv("ROPUS_BENCH_WEEKS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value >= 1 && value <= 52) return static_cast<std::size_t>(value);
  }
  return 4;
}

std::vector<trace::DemandTrace> case_study(std::size_t weeks) {
  return workload::case_study_traces(trace::Calendar::standard(weeks), kSeed);
}

qos::Requirement paper_requirement(double m_percent,
                                   std::optional<double> t_degr_minutes) {
  qos::Requirement r;
  r.u_low = 0.5;
  r.u_high = 0.66;
  r.u_degr = 0.9;
  r.m_percent = m_percent;
  r.t_degr_minutes = t_degr_minutes;
  return r;
}

placement::ConsolidationConfig bench_consolidation(std::uint64_t seed) {
  placement::ConsolidationConfig cfg;
  cfg.genetic.seed = seed;
  const char* fast = std::getenv("ROPUS_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    cfg.genetic.population = 16;
    cfg.genetic.max_generations = 60;
    cfg.genetic.stagnation_limit = 12;
  } else {
    cfg.genetic.population = 32;
    cfg.genetic.max_generations = 250;
    cfg.genetic.stagnation_limit = 30;
  }
  return cfg;
}

BenchReporter::BenchReporter(std::string name)
    : name_(std::move(name)), start_seconds_(obs::monotonic_seconds()) {}

void BenchReporter::add_phase(BenchPhase phase) {
  phases_.push_back(std::move(phase));
}

void BenchReporter::add_phase(std::string name, double seconds) {
  BenchPhase phase;
  phase.name = std::move(name);
  phase.seconds = seconds;
  phases_.push_back(std::move(phase));
}

void BenchReporter::set_metric(const std::string& name, double value) {
  metrics_[name] = value;
}

std::string BenchReporter::to_json() const {
  const char* fast = std::getenv("ROPUS_BENCH_FAST");
  json::Writer w;
  w.begin_object();
  w.key("bench").value(name_);
  w.key("git_describe").value(obs::build_git_describe());
  w.key("weeks").value(weeks_.value_or(weeks_from_env()));
  w.key("fast").value(fast != nullptr && fast[0] == '1');
  if (repetitions_.has_value()) w.key("repetitions").value(*repetitions_);
  w.key("wall_seconds").value(obs::monotonic_seconds() - start_seconds_);
  w.key("peak_rss_kb").value(static_cast<std::int64_t>(obs::peak_rss_kb()));
  w.key("phases").begin_array();
  for (const BenchPhase& p : phases_) {
    w.begin_object();
    w.key("name").value(p.name);
    w.key("seconds").value(p.seconds);
    if (p.ops_per_sec.has_value()) w.key("ops_per_sec").value(*p.ops_per_sec);
    if (p.iterations != 0) w.key("iterations").value(p.iterations);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics_) w.key(name).value(value);
  w.end_object();
  w.end_object();
  return w.str();
}

std::filesystem::path BenchReporter::write() const {
  std::filesystem::path dir = ".";
  if (const char* env = std::getenv("ROPUS_BENCH_OUT_DIR")) {
    if (env[0] != '\0') dir = env;
  }
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / ("BENCH_" + name_ + ".json");
  io::write_file_atomic(path, to_json());
  return path;
}

std::vector<qos::WorkloadAllocations> case_study_multi(
    std::size_t weeks, const qos::Requirement& req,
    const qos::CosCommitment& cos2) {
  const auto profiles = workload::case_study_profiles();
  const trace::Calendar cal = trace::Calendar::standard(weeks);
  std::vector<qos::WorkloadAllocations> out;
  out.reserve(profiles.size());
  for (const workload::Profile& p : profiles) {
    trace::DemandTrace cpu = workload::generate(p, cal, kSeed);
    workload::AttributeTraces attrs =
        workload::generate_attributes(p, cpu, kSeed);
    qos::WorkloadAllocations w(
        qos::AllocationTrace(cpu, qos::translate(cpu, req, cos2)));
    w.set_attribute(trace::Attribute::kMemoryGb, std::move(attrs.memory));
    w.set_attribute(trace::Attribute::kDiskMbps, std::move(attrs.disk));
    w.set_attribute(trace::Attribute::kNetworkMbps,
                    std::move(attrs.network));
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace ropus::bench
