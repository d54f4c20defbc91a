// The adaptive probing policy's end-to-end determinism contract
// (docs/PROBING.md, "Adaptive policy"): `--window auto` campaigns produce
// byte-identical subnets_csv and merged journals across serial/parallel
// schedules and wall/virtual clocks — on a clean network AND at 20%
// injected loss — and identical to the window=1 serial walk, because the
// controller's inputs are all schedule-invariant and prescans only warm the
// session probe cache. A fixed `--window N` is the same controller clamped
// to N, so it inherits the contract and never resizes.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "eval/campaign.h"
#include "eval/report.h"
#include "runtime/campaign.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "topo/reference.h"
#include "trace/journal.h"

namespace tn {
namespace {

struct AdaptiveRun {
  std::string csv;
  std::string journal;
  std::uint64_t speculative_spent = 0;
  std::uint64_t speculative_saved = 0;
  std::uint64_t window_resizes = 0;
  std::uint64_t waves = 0;
  std::uint64_t occupancy_max = 0;
};

// window 0 = "--window auto"; N >= 1 = a fixed window of N.
AdaptiveRun run_adaptive(const topo::ReferenceTopology& ref, bool lossy,
                         int jobs, bool virtual_time, int window = 0) {
  sim::vtime::Scheduler scheduler;
  sim::NetworkConfig net_config;
  if (virtual_time) {
    net_config.wall_rtt_us = 2'000;
    net_config.scheduler = &scheduler;
  }
  sim::Network net(ref.topo, net_config);
  if (lossy) net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));

  runtime::RuntimeConfig config;
  config.jobs = jobs;
  if (window == 0)
    config.campaign.session.adaptive.enabled = true;
  else
    config.campaign.session.probe_window = window;
  trace::JsonlTraceWriter writer(trace::Level::kSession, false, nullptr);
  config.trace_sink = &writer;
  runtime::MetricsRegistry metrics;
  runtime::CampaignRuntime runtime(net, ref.vantage, config, &metrics);

  AdaptiveRun out;
  out.csv = eval::subnets_csv(runtime.run("utdallas", ref.targets).observations);
  out.journal = writer.merged();
  out.speculative_spent = metrics.counter("probe.speculative_spent").value();
  out.speculative_saved = metrics.counter("probe.speculative_saved").value();
  out.window_resizes = metrics.counter("probe.window_resizes").value();
  out.waves = metrics.counter("probe.waves").value();
  out.occupancy_max = metrics.histogram("probe.window_occupancy").max();
  return out;
}

std::string run_window1(const topo::ReferenceTopology& ref, bool lossy) {
  sim::Network net(ref.topo);
  if (lossy) net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));
  return eval::subnets_csv(
      eval::run_campaign(net, ref.vantage, "utdallas", ref.targets, {}));
}

TEST(AdaptiveCampaign, ByteIdenticalAcrossSchedulesAndClocksCleanAndLossy) {
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "20% loss" : "clean");
    // Reference point: the wall-clock serial adaptive run.
    const AdaptiveRun reference = run_adaptive(ref, lossy, 1, false);
    EXPECT_GT(reference.speculative_spent, 0u);
    EXPECT_GT(reference.speculative_saved, 0u);
    EXPECT_GT(reference.window_resizes, 0u);

    // ...must equal the serial walk's output byte for byte: the policy only
    // moves probes in time.
    EXPECT_EQ(reference.csv, run_window1(ref, lossy));

    for (const int jobs : {1, 4}) {
      for (const bool virtual_time : {false, true}) {
        if (jobs == 1 && !virtual_time) continue;  // the reference itself
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     (virtual_time ? " virtual" : " wall"));
        const AdaptiveRun run = run_adaptive(ref, lossy, jobs, virtual_time);
        EXPECT_EQ(run.csv, reference.csv);
        EXPECT_EQ(run.journal, reference.journal);
      }
    }
  }
}

TEST(AdaptiveCampaign, FixedWindowIsTheControllerClampedToIt) {
  // probe_window = 16 without adaptive.enabled: the controller pinned at
  // initial = min = max = 16. Under keyed loss its pacing is live, yet the
  // window never moves, no wave exceeds it, and the output is the serial
  // walk's byte for byte. Window 1 stays the plain serial walk: no waves.
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  const std::string serial = run_window1(ref, /*lossy=*/true);
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const AdaptiveRun clamped = run_adaptive(ref, true, jobs, false, 16);
    EXPECT_EQ(clamped.window_resizes, 0u);
    EXPECT_GT(clamped.waves, 0u);
    EXPECT_GT(clamped.speculative_spent, 0u);
    EXPECT_LE(clamped.occupancy_max, 16u);
    EXPECT_EQ(clamped.csv, serial);

    const AdaptiveRun window1 = run_adaptive(ref, true, jobs, false, 1);
    EXPECT_EQ(window1.waves, 0u);
    EXPECT_EQ(window1.speculative_spent, 0u);
    EXPECT_EQ(window1.csv, serial);
    EXPECT_EQ(clamped.journal, window1.journal);
  }
}

TEST(AdaptiveCampaign, EvalSerialPathMatchesRuntime) {
  // The single-session eval path (no runtime workers) wires the controller
  // too; its collected subnets must match the runtime's byte for byte.
  const topo::ReferenceTopology ref = topo::internet2_like(42);
  sim::Network net(ref.topo);
  net.set_faults(sim::FaultSpec::uniform_loss(0.2, 7));
  eval::CampaignConfig config;
  config.session.adaptive.enabled = true;
  const std::string csv = eval::subnets_csv(
      eval::run_campaign(net, ref.vantage, "utdallas", ref.targets, config));
  EXPECT_EQ(csv, run_adaptive(ref, /*lossy=*/true, 1, false).csv);
}

}  // namespace
}  // namespace tn
