#include "bench_diff/diff.h"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "common/file_io.h"
#include "common/flags.h"
#include "common/json.h"

namespace ropus::benchdiff {

namespace {

/// The run-shape fields two documents must agree on to be comparable.
constexpr const char* kShapeFields[] = {"weeks", "fast", "repetitions"};

struct BenchDoc {
  std::string path;
  std::string bench;
  /// Each shape field's JSON text, "absent" when the document lacks it.
  std::map<std::string, std::string> shape;
  /// Gated timing entries: metric name (or "phase:<name>.ops_per_sec") to
  /// value, plus whether larger is better (throughput) or worse (latency).
  std::map<std::string, double> timings;
};

bool is_timing_metric(const std::string& name) {
  return name.ends_with("_us") || name.ends_with("_seconds");
}

std::string read_text_file(const std::filesystem::path& path) {
  std::optional<std::string> content = io::read_file(path);
  if (!content) throw IoError("cannot open " + path.string());
  return std::move(*content);
}

BenchDoc read_bench(const std::filesystem::path& path) {
  const json::Value doc = json::parse(read_text_file(path));
  BenchDoc bench;
  bench.path = path.string();
  bench.bench = doc.at("bench").as_string();
  for (const char* field : kShapeFields) {
    const json::Value* v = doc.find(field);
    std::string text = "absent";
    if (v != nullptr && v->is_bool()) {
      text = v->as_bool() ? "true" : "false";
    } else if (v != nullptr && v->is_number()) {
      std::ostringstream number;
      number << v->as_number();
      text = number.str();
    } else if (v != nullptr) {
      throw IoError(bench.path + ": '" + field + "' is not a number or bool");
    }
    bench.shape[field] = text;
  }
  for (const auto& [name, value] : doc.at("metrics").as_object()) {
    if (is_timing_metric(name)) bench.timings[name] = value.as_number();
  }
  for (const json::Value& phase : doc.at("phases").as_array()) {
    if (const json::Value* ops = phase.find("ops_per_sec")) {
      bench.timings["phase:" + phase.at("name").as_string() + ".ops_per_sec"] =
          ops->as_number();
    }
  }
  return bench;
}

/// Pairs of (baseline, current) documents matched by filename.
struct Pairing {
  std::vector<std::pair<BenchDoc, BenchDoc>> pairs;
  std::vector<std::string> only_baseline;
  std::vector<std::string> only_current;
};

std::vector<std::filesystem::path> bench_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("BENCH_") && name.ends_with(".json")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Pairing pair_inputs(const std::filesystem::path& baseline,
                    const std::filesystem::path& current) {
  Pairing pairing;
  const bool dirs =
      std::filesystem::is_directory(baseline) &&
      std::filesystem::is_directory(current);
  if (!dirs) {
    ROPUS_REQUIRE(!std::filesystem::is_directory(baseline) &&
                      !std::filesystem::is_directory(current),
                  "--baseline and --current must both be files or both be "
                  "directories");
    pairing.pairs.emplace_back(read_bench(baseline), read_bench(current));
    return pairing;
  }
  std::map<std::string, std::filesystem::path> base_by_name;
  for (const auto& file : bench_files(baseline)) {
    base_by_name[file.filename().string()] = file;
  }
  std::map<std::string, std::filesystem::path> cur_by_name;
  for (const auto& file : bench_files(current)) {
    cur_by_name[file.filename().string()] = file;
  }
  for (const auto& [name, base_path] : base_by_name) {
    const auto it = cur_by_name.find(name);
    if (it == cur_by_name.end()) {
      pairing.only_baseline.push_back(name);
      continue;
    }
    pairing.pairs.emplace_back(read_bench(base_path), read_bench(it->second));
  }
  for (const auto& [name, path] : cur_by_name) {
    if (!base_by_name.contains(name)) pairing.only_current.push_back(name);
  }
  return pairing;
}

struct Comparison {
  std::string bench;
  std::string entry;
  double baseline = 0.0;
  double current = 0.0;
  double slowdown = 0.0;  // relative; > 0 means worse than the baseline
};

}  // namespace

int run(std::span<const std::string> args, std::ostream& out,
        std::ostream& err) {
  try {
    const Flags flags(args);
    const std::vector<std::string> allowed{
        "baseline", "current", "threshold", "warn-only", "json-out"};
    for (const std::string& name : flags.unknown_flags(allowed)) {
      err << "unknown flag: --" << name << "\n";
      return 1;
    }
    const auto baseline = flags.get("baseline");
    const auto current = flags.get("current");
    if (!baseline || !current) {
      err << "usage: bench_diff --baseline=<file|dir> --current=<file|dir> "
             "[--threshold=0.15] [--warn-only] [--json-out=<path>]\n";
      return 1;
    }
    const double threshold = flags.get_double("threshold", 0.15);
    ROPUS_REQUIRE(threshold > 0.0, "--threshold must be > 0");
    const bool warn_only = flags.get_bool("warn-only", false);

    const Pairing pairing = pair_inputs(*baseline, *current);
    for (const std::string& name : pairing.only_baseline) {
      err << "warning: " << name << " has a baseline but no current run\n";
    }
    for (const std::string& name : pairing.only_current) {
      err << "warning: " << name << " has no committed baseline\n";
    }

    // Runs of different shapes time different work: refuse to compare.
    for (const auto& [base, cur] : pairing.pairs) {
      for (const auto& [field, base_value] : base.shape) {
        const std::string& cur_value = cur.shape.at(field);
        if (base_value == cur_value) continue;
        err << "error: " << base.bench << " runs differ in '" << field
            << "': baseline " << base_value << " (" << base.path
            << "), current " << cur_value << " (" << cur.path << ")\n";
        return 1;
      }
    }

    std::vector<Comparison> comparisons;
    std::vector<std::string> missing_entries;
    for (const auto& [base, cur] : pairing.pairs) {
      for (const auto& [entry, base_value] : base.timings) {
        const auto it = cur.timings.find(entry);
        if (it == cur.timings.end()) {
          missing_entries.push_back(base.bench + "/" + entry);
          continue;
        }
        if (base_value <= 0.0 || it->second <= 0.0) continue;
        Comparison c;
        c.bench = base.bench;
        c.entry = entry;
        c.baseline = base_value;
        c.current = it->second;
        // Throughput regresses when it shrinks; latency when it grows.
        c.slowdown = entry.ends_with("ops_per_sec")
                         ? base_value / it->second - 1.0
                         : it->second / base_value - 1.0;
        comparisons.push_back(c);
      }
      for (const auto& [entry, value] : cur.timings) {
        if (!base.timings.contains(entry)) {
          err << "warning: " << cur.bench << "/" << entry
              << " has no baseline entry\n";
        }
      }
    }
    for (const std::string& entry : missing_entries) {
      err << "warning: " << entry << " missing from the current run\n";
    }

    std::sort(comparisons.begin(), comparisons.end(),
              [](const Comparison& a, const Comparison& b) {
                return a.slowdown > b.slowdown;
              });
    std::size_t regressions = 0;
    out << "bench_diff: " << comparisons.size() << " timing entries, threshold "
        << std::fixed << std::setprecision(0) << threshold * 100.0 << "%\n";
    for (const Comparison& c : comparisons) {
      const bool regressed = c.slowdown > threshold;
      if (regressed) regressions += 1;
      // Print every regression plus the few largest movers for context.
      if (!regressed && &c - comparisons.data() >= 5) continue;
      out << "  " << (regressed ? "REGRESSION " : "           ") << c.bench
          << "/" << c.entry << ": " << std::setprecision(3) << c.baseline
          << " -> " << c.current << " (" << std::showpos
          << std::setprecision(1) << c.slowdown * 100.0 << "%" << std::noshowpos
          << ")\n";
    }
    out << (regressions == 0 ? "ok: no regression beyond the threshold\n"
                             : "FAIL: " + std::to_string(regressions) +
                                   " entries regressed\n");

    if (const auto json_out = flags.get("json-out")) {
      json::Writer w;
      w.begin_object();
      w.key("threshold").value(threshold);
      w.key("regressions").value(regressions);
      w.key("entries").begin_array();
      for (const Comparison& c : comparisons) {
        w.begin_object();
        w.key("bench").value(c.bench);
        w.key("entry").value(c.entry);
        w.key("baseline").value(c.baseline);
        w.key("current").value(c.current);
        w.key("slowdown").value(c.slowdown);
        w.key("regressed").value(c.slowdown > threshold);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      io::write_file_atomic(*json_out, w.str() + "\n");
    }

    if (regressions > 0 && !warn_only) return 2;
    return 0;
  } catch (const InvalidArgument& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace ropus::benchdiff
