// `ropus_cli profile`: the offline half of the sampling profiler. Works on
// folded collapsed-stack files as produced by --profile-out and by the serve
// daemon's GET /debug/profile — render a flamegraph, aggregate captures,
// rank hot frames, or diff two profiles with an optional regression gate
// (the profile analogue of bench_diff, same 0/1/2 exit convention).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli_util.h"
#include "cli/commands.h"
#include "common/error.h"
#include "common/file_io.h"
#include "obs/profiler.h"

namespace ropus::cli {
namespace {

std::string read_text_file(const std::string& path) {
  std::optional<std::string> content = io::read_file(path);
  if (!content) throw IoError("cannot open profile '" + path + "'");
  return std::move(*content);
}

obs::prof::FoldedStacks load_folded(const std::string& path) {
  const std::string text = read_text_file(path);
  try {
    return obs::prof::parse_folded(text);
  } catch (const IoError& e) {
    throw IoError(path + ": " + e.what());
  }
}

std::uint64_t total_samples(const obs::prof::FoldedStacks& stacks) {
  std::uint64_t total = 0;
  for (const auto& [stack, count] : stacks) total += count;
  return total;
}

/// The mode flag's value doubles as the first input (`--render=a.folded`),
/// and bare positionals follow (`--diff old.folded new.folded`), so both
/// spellings work.
std::vector<std::string> mode_inputs(const Flags& flags,
                                     const std::string& mode) {
  std::vector<std::string> inputs;
  const auto value = flags.get(mode);
  if (value.has_value() && *value != "true") inputs.push_back(*value);
  const auto& pos = flags.positional();
  inputs.insert(inputs.end(), pos.begin(), pos.end());
  return inputs;
}

/// Writes `body` to --out (atomic) or stdout.
void emit(const Flags& flags, const std::string& body, std::ostream& out) {
  if (const auto path = flags.get("out")) {
    io::write_file_atomic(*path, body);
  } else {
    out << body;
  }
}

int run_render(const Flags& flags, const std::vector<std::string>& inputs,
               std::ostream& out, std::ostream& err) {
  if (inputs.size() != 1) {
    err << "error: --render takes exactly one folded profile\n";
    return 1;
  }
  const obs::prof::FoldedStacks stacks = load_folded(inputs[0]);
  const std::string title = flags.get_string("title", inputs[0]);
  emit(flags, obs::prof::flamegraph_svg(stacks, title), out);
  return 0;
}

int run_aggregate(const Flags& flags, const std::vector<std::string>& inputs,
                  std::ostream& out, std::ostream& err) {
  if (inputs.size() < 2) {
    err << "error: --aggregate needs at least two folded profiles\n";
    return 1;
  }
  obs::prof::FoldedStacks merged;
  for (const std::string& path : inputs) {
    obs::prof::merge_folded(merged, load_folded(path));
  }
  char header[96];
  std::snprintf(header, sizeof(header),
                "# aggregated from %zu profiles, %llu samples\n",
                inputs.size(),
                static_cast<unsigned long long>(total_samples(merged)));
  emit(flags, header + obs::prof::to_folded(merged), out);
  return 0;
}

int run_top(const Flags& flags, const std::vector<std::string>& inputs,
            std::ostream& out, std::ostream& err) {
  if (inputs.size() != 1) {
    err << "error: --top takes exactly one folded profile\n";
    return 1;
  }
  const obs::prof::FoldedStacks stacks = load_folded(inputs[0]);
  const std::uint64_t total = total_samples(stacks);
  if (total == 0) {
    out << inputs[0] << ": empty profile (0 samples)\n";
    return 0;
  }
  std::vector<std::pair<std::string, obs::prof::FrameStat>> frames;
  for (auto& entry : obs::prof::frame_stats(stacks)) frames.push_back(entry);
  std::sort(frames.begin(), frames.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    return a.first < b.first;
  });
  const std::size_t limit = flags.get_size("limit", 20);
  out << inputs[0] << ": " << total << " samples\n";
  out << "   self%   total%       self      total  frame\n";
  char row[512];
  for (std::size_t i = 0; i < frames.size() && i < limit; ++i) {
    const auto& [frame, stat] = frames[i];
    std::snprintf(row, sizeof(row), "  %6.2f   %6.2f  %9llu  %9llu  %s\n",
                  100.0 * static_cast<double>(stat.self) /
                      static_cast<double>(total),
                  100.0 * static_cast<double>(stat.total) /
                      static_cast<double>(total),
                  static_cast<unsigned long long>(stat.self),
                  static_cast<unsigned long long>(stat.total), frame.c_str());
    out << row;
  }
  if (frames.size() > limit) {
    out << "  (" << frames.size() - limit << " more frames; --limit=N)\n";
  }
  return 0;
}

int run_diff(const Flags& flags, const std::vector<std::string>& inputs,
             std::ostream& out, std::ostream& err) {
  if (inputs.size() != 2) {
    err << "error: --diff takes exactly two folded profiles (old, new)\n";
    return 1;
  }
  const obs::prof::FoldedStacks before = load_folded(inputs[0]);
  const obs::prof::FoldedStacks after = load_folded(inputs[1]);
  const double total_before = static_cast<double>(total_samples(before));
  const double total_after = static_cast<double>(total_samples(after));
  if (total_before <= 0.0 || total_after <= 0.0) {
    err << "error: cannot diff an empty profile ("
        << (total_before <= 0.0 ? inputs[0] : inputs[1]) << " has 0 samples)\n";
    return 1;
  }
  // Compare self-time *shares*, not raw counts: two captures rarely run the
  // same wall time or rate, but the fraction of CPU a frame burns is
  // directly comparable.
  const std::map<std::string, obs::prof::FrameStat> stats_before =
      obs::prof::frame_stats(before);
  const std::map<std::string, obs::prof::FrameStat> stats_after =
      obs::prof::frame_stats(after);
  struct Delta {
    std::string frame;
    double before_pct = 0.0;
    double after_pct = 0.0;
  };
  std::map<std::string, Delta> by_frame;
  for (const auto& [frame, stat] : stats_before) {
    by_frame[frame].frame = frame;
    by_frame[frame].before_pct =
        100.0 * static_cast<double>(stat.self) / total_before;
  }
  for (const auto& [frame, stat] : stats_after) {
    by_frame[frame].frame = frame;
    by_frame[frame].after_pct =
        100.0 * static_cast<double>(stat.self) / total_after;
  }
  std::vector<Delta> deltas;
  for (auto& [frame, delta] : by_frame) deltas.push_back(delta);
  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    const double da = std::abs(a.after_pct - a.before_pct);
    const double db = std::abs(b.after_pct - b.before_pct);
    if (da != db) return da > db;
    return a.frame < b.frame;
  });

  out << "profile diff: " << inputs[0] << " ("
      << static_cast<std::uint64_t>(total_before) << " samples) -> "
      << inputs[1] << " (" << static_cast<std::uint64_t>(total_after)
      << " samples), self-time share in percentage points\n";
  out << "   delta     old%     new%  frame\n";
  const std::size_t limit = flags.get_size("limit", 20);
  char row[512];
  for (std::size_t i = 0; i < deltas.size() && i < limit; ++i) {
    const Delta& d = deltas[i];
    std::snprintf(row, sizeof(row), "  %+6.2f   %6.2f   %6.2f  %s\n",
                  d.after_pct - d.before_pct, d.before_pct, d.after_pct,
                  d.frame.c_str());
    out << row;
  }
  if (deltas.size() > limit) {
    out << "  (" << deltas.size() - limit << " more frames; --limit=N)\n";
  }

  // --gate=pct: fail (exit 2, bench_diff's regression code) when any
  // frame's self share grew by more than `pct` percentage points.
  const double gate = flags.get_double("gate", 0.0);
  if (gate < 0.0) {
    err << "error: --gate must be >= 0\n";
    return 1;
  }
  if (gate > 0.0) {
    double worst = 0.0;
    std::string worst_frame;
    for (const Delta& d : deltas) {
      const double growth = d.after_pct - d.before_pct;
      if (growth > worst) {
        worst = growth;
        worst_frame = d.frame;
      }
    }
    if (worst > gate) {
      out << "GATE FAIL: " << worst_frame << " grew +";
      std::snprintf(row, sizeof(row), "%.2f", worst);
      out << row << " pct-points (gate " << gate << ")\n";
      return 2;
    }
    out << "gate ok: no frame grew more than " << gate << " pct-points\n";
  }
  return 0;
}

}  // namespace

int cmd_profile(const Flags& flags, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> allowed{"render", "aggregate", "diff",
                                         "top",    "out",       "title",
                                         "limit",  "gate"};
  if (!check_flags(flags, allowed, err)) return 1;
  const int modes = (flags.has("render") ? 1 : 0) +
                    (flags.has("aggregate") ? 1 : 0) +
                    (flags.has("diff") ? 1 : 0) + (flags.has("top") ? 1 : 0);
  if (modes != 1) {
    err << "error: profile needs exactly one of --render, --aggregate, "
           "--diff, --top\n";
    return 1;
  }
  if (flags.has("render")) {
    return run_render(flags, mode_inputs(flags, "render"), out, err);
  }
  if (flags.has("aggregate")) {
    return run_aggregate(flags, mode_inputs(flags, "aggregate"), out, err);
  }
  if (flags.has("top")) {
    return run_top(flags, mode_inputs(flags, "top"), out, err);
  }
  return run_diff(flags, mode_inputs(flags, "diff"), out, err);
}

}  // namespace ropus::cli
