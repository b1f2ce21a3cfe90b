// faultsim-campaign: the performability half of the paper. 26 apps x 4
// weeks on 13 x 16-way servers with a first-fit-decreasing normal
// placement. A pass runs kCampaigns campaigns of kTrials trials each, with
// server failures, demand surges (0.5 per week) and telemetry drops (2%);
// each campaign has its own seed, drawn from --seed, and its report is one
// verdict. Small campaigns keep a pass near a second, so a run holds many
// passes and its medians span the host's slow spells.
//
// Reference: a campaign report is byte-identical at any thread count, so
// every one-thread campaign must reproduce the digest of the same campaign
// run at nproc threads.
#include <array>
#include <optional>

#include "common/parallel.h"
#include "faultsim/campaign.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace perfbench {
namespace {

using namespace ropus;

constexpr std::size_t kCampaigns = 4;
constexpr std::size_t kTrials = 25;

class FaultsimCampaign final : public Workload {
 public:
  explicit FaultsimCampaign(const Options& options)
      : demands_(generate_fleet(replica_profiles(1), 4, options.seed)),
        pool_(sim::homogeneous_pool(13, 16)) {
    for (const trace::DemandTrace& d : demands_) {
      qos::ApplicationQos q;
      q.app_name = d.name();
      q.normal = paper_requirement(100.0, std::nullopt);  // Table I case 4
      q.failure = paper_requirement(97.0, 30.0);          // Table I case 5
      app_qos_.push_back(std::move(q));
    }
    campaign_.emplace(demands_, app_qos_, commitments_, pool_,
                      faultsim::Campaign::plan_normal_assignment(
                          demands_, app_qos_, commitments_, pool_));
    for (std::size_t k = 0; k < kCampaigns; ++k) {
      faultsim::CampaignConfig& c = configs_[k];
      c.trials = kTrials;
      c.seed = options.seed * kCampaigns + k;
      c.surge.arrivals_per_week = 0.5;
      c.replay.telemetry.drop_rate = 0.02;
    }
  }

  PassTime pass(Checks& /*checks*/, std::vector<double>& verdict_ms) override {
    const obs::ScopedSpan root("bench.pass");
    std::array<std::uint64_t, kCampaigns> digests{};
    const double wall0 = wall_seconds();
    const double cpu0 = cpu_seconds();
    for (std::size_t k = 0; k < kCampaigns; ++k) {
      const double t0 = wall_seconds();
      std::string report;
      {
        const obs::ScopedSpan span("bench.faultsim.campaign");
        report = faultsim::format_report_json(campaign_->run(configs_[k]));
      }
      const double s = wall_seconds() - t0;
      verdict_ms.push_back(1000.0 * s);
      campaign_s_.push_back(s);
      digests[k] = Digest().add(report).value();
    }
    const PassTime time{wall_seconds() - wall0, cpu_seconds() - cpu0};
    cpu_s_.push_back(time.cpu_s);
    pass_digests_.push_back(digests);
    return time;
  }

  void verify(Checks& checks, bool corrupt_reference) override {
    parallel::set_thread_count(parallel::hardware_threads());
    std::array<std::uint64_t, kCampaigns> expected{};
    for (std::size_t k = 0; k < kCampaigns; ++k) {
      const double t0 = wall_seconds();
      expected[k] =
          Digest().add(faultsim::format_report_json(campaign_->run(configs_[k])))
              .value();
      nproc_campaign_s_.push_back(wall_seconds() - t0);
      if (corrupt_reference) expected[k] ^= 1;
    }
    parallel::set_thread_count(1);
    for (const auto& digests : pass_digests_) {
      for (std::size_t k = 0; k < kCampaigns; ++k) {
        checks.op(digests[k] == expected[k],
                  "campaign " + std::to_string(k) +
                      ": one-thread report differs from the nproc-thread one");
      }
    }
  }

  std::vector<Metric> report() const override {
    const double cpu = median(cpu_s_);
    return {{"campaign_s", median(campaign_s_), "s"},
            {"trials_per_cpu_s",
             cpu > 0.0 ? static_cast<double>(kCampaigns * kTrials) / cpu : 0.0,
             "1/s"},
            {"campaign_s_nproc", median(nproc_campaign_s_), "s"}};
  }

  /// Parallel efficiency needs the thread pool, which the traced passes do
  /// not use: the pass's campaigns once more at nproc threads, with trial
  /// timing on.
  void probe_layers(LayerValues& out) override {
    static obs::Histogram& trial = obs::histogram("faultsim.trial_seconds");
    const std::size_t threads = parallel::hardware_threads();
    parallel::set_thread_count(threads);
    const double busy0 = trial.snapshot().sum;
    const double t0 = wall_seconds();
    for (const faultsim::CampaignConfig& c : configs_) (void)campaign_->run(c);
    const double wall = wall_seconds() - t0;
    const double busy = trial.snapshot().sum - busy0;
    parallel::set_thread_count(1);
    out["faultsim.parallel_efficiency"] =
        busy / (wall * static_cast<double>(threads));
  }

 private:
  std::vector<trace::DemandTrace> demands_;
  std::vector<sim::ServerSpec> pool_;
  std::vector<qos::ApplicationQos> app_qos_;
  qos::PoolCommitments commitments_;
  std::optional<faultsim::Campaign> campaign_;
  std::array<faultsim::CampaignConfig, kCampaigns> configs_;

  std::vector<std::array<std::uint64_t, kCampaigns>> pass_digests_;
  std::vector<double> campaign_s_;
  std::vector<double> cpu_s_;
  std::vector<double> nproc_campaign_s_;
};

}  // namespace

std::unique_ptr<Workload> make_faultsim_campaign(const Options& options) {
  return std::make_unique<FaultsimCampaign>(options);
}

}  // namespace perfbench
