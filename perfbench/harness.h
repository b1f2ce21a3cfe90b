// Shared plumbing for the end-to-end benchmark: clocks, digests, output
// checks, the workload interface, and the fleet helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qos/requirements.h"
#include "trace/demand_trace.h"
#include "workload/profile.h"

namespace perfbench {

/// Wall clock (steady) and process CPU clock, in seconds.
double wall_seconds();
double cpu_seconds();

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double percentile(const std::vector<double>& values, double q);
/// Median of `values`, the mean of the middle two for an even count (so a
/// run of two passes is not reported as its faster one); 0 when empty.
double median(const std::vector<double>& values);

/// 64-bit FNV-1a over a byte stream: the output digests the checks compare.
class Digest {
 public:
  Digest& add(std::string_view bytes);
  Digest& add(double value);  // by bit pattern
  Digest& add(std::uint64_t value);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Tallies operations against their reference. An op fails when it threw,
/// returned a protocol error, or its output differs from the reference.
class Checks {
 public:
  /// Records one op; `detail` is printed for the first few failures.
  void op(bool ok, const std::string& detail);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Flips every reference answer and digest: proves the checks can fail.
  bool corrupt_reference = false;
  /// Scratch directory inside the checkout (journal, checkpoint, traces).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// A named value with its unit, as printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer values a workload measures itself (bench-timed calls into a
/// layer); main.cpp adds the registry-derived and span-derived ones.
using LayerValues = std::map<std::string, double>;

/// One benchmark workload. Construction is the set-up (fleet generation and
/// the program objects); pass() is one timed, checked closed-loop pass.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  struct PassTime {
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  /// Runs one pass at one thread; every pass of a run has the same inputs
  /// and must give the same outputs. Records the verdict latencies it
  /// timed (ms) into `verdict_ms`, in the same order every pass, and each
  /// op's check into `checks`; returns the wall and CPU seconds of the
  /// timed region.
  virtual PassTime pass(Checks& checks, std::vector<double>& verdict_ms) = 0;

  /// Checks that need a reference computed outside the timed loop (run
  /// once after the last pass), including the nproc-thread runs whose
  /// output must equal the one-thread passes'.
  virtual void verify(Checks& checks, bool corrupt_reference) = 0;

  /// The workload's own end-to-end figures, by the names the benchmark doc
  /// uses (printed before the result line; not part of the gated set).
  virtual std::vector<Metric> report() const = 0;

  /// Per-layer values the workload timed itself in the last pass.
  virtual LayerValues layers() const { return {}; }

  /// Traced run only, after the traced passes: extra layer measurements
  /// that need their own replay (e.g. serve's parse/arbiter/journal split).
  virtual void probe_layers(LayerValues& /*out*/) {}
};

std::unique_ptr<Workload> make_plan26(const Options& options);
std::unique_ptr<Workload> make_serve_churn(const Options& options);
std::unique_ptr<Workload> make_faultsim_campaign(const Options& options);

/// The 26 case-study profiles, replicated `replicas` times. With one
/// replica the names are the case study's own; otherwise replica k renames
/// every profile to `<name>-r<k>`, so generation derives a distinct stream
/// per replica.
std::vector<ropus::workload::Profile> replica_profiles(std::size_t replicas);

/// The default band, which is the paper's §VII one (U_low 0.5, U_high 0.66,
/// U_degr 0.9), with the given M and T_degr.
ropus::qos::Requirement paper_requirement(double m_percent,
                                          std::optional<double> t_degr_minutes);

/// Demand traces for `profiles` over `weeks` standard weeks from `seed`.
std::vector<ropus::trace::DemandTrace> generate_fleet(
    const std::vector<ropus::workload::Profile>& profiles, std::size_t weeks,
    std::uint64_t seed);

}  // namespace perfbench
