#include "runtime/campaign.h"

#include <gtest/gtest.h>

#include <set>

#include "eval/report.h"
#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace tn::runtime {
namespace {

using test::ip;

// An ISP whose replies are pure functions of the probe: no flakiness, rate
// limiting or per-packet load balancing. This is the domain of the
// determinism contract (docs/RUNTIME.md) — on such networks any worker
// schedule must reproduce the serial campaign bit for bit.
topo::IspProfile clean_isp() {
  topo::IspProfile isp;
  isp.name = "CleanNet";
  isp.block = *net::Prefix::parse("20.0.0.0/12");
  isp.core_routers = 6;
  isp.border_count = 2;
  isp.subnet_counts = {{24, 2}, {26, 3}, {28, 5}, {29, 6}, {30, 16}, {31, 8}};
  isp.firewalled_fraction = 0.05;
  isp.partial_dark_fraction = 0.10;
  isp.lan_utilization = 0.7;
  isp.rate_limited_router_fraction = 0.0;
  isp.udp_responsive_fraction = 0.3;
  isp.tcp_responsive_fraction = 0.0;
  isp.multi_homed_lan_fraction = 0.1;
  isp.mesh_link_fraction = 0.4;
  isp.per_packet_lb_fraction = 0.0;
  isp.response_flakiness = 0.0;
  isp.p2p_target_fraction = 1.0;  // plenty of coverable targets
  return isp;
}

// Everything the determinism contract promises: all observation fields
// except the schedule-dependent wire-probe count.
void expect_identical_observations(const eval::VantageObservations& a,
                                   const eval::VantageObservations& b) {
  EXPECT_EQ(eval::subnets_csv(a), eval::subnets_csv(b));  // byte-identical
  EXPECT_EQ(a.unsubnetized, b.unsubnetized);
  EXPECT_EQ(a.subnetized_addrs, b.subnetized_addrs);
  EXPECT_EQ(a.prefixes(), b.prefixes());
  EXPECT_EQ(a.targets_total, b.targets_total);
  EXPECT_EQ(a.targets_traced, b.targets_traced);
  EXPECT_EQ(a.targets_responding, b.targets_responding);
  EXPECT_EQ(a.targets_covered, b.targets_covered);
  ASSERT_EQ(a.subnets.size(), b.subnets.size());
  for (std::size_t i = 0; i < a.subnets.size(); ++i)
    EXPECT_EQ(a.subnets[i].to_string(), b.subnets[i].to_string());
}

TEST(CampaignRuntime, MatchesSerialCampaignOnFig3) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              ip("10.0.4.2")};
  sim::Network serial_net(f.topo);
  const eval::VantageObservations serial =
      eval::run_campaign(serial_net, f.vantage, "V", targets, {});

  for (const int jobs : {1, 2, 4}) {
    sim::Network net(f.topo);
    RuntimeConfig config;
    config.jobs = jobs;
    const eval::VantageObservations parallel =
        run_campaign_parallel(net, f.vantage, "V", targets, config);
    expect_identical_observations(serial, parallel);
  }
}

// The regression the issue asks for: jobs=1 and jobs=4 over the same
// simulated ISP agree on subnet sets and on every aggregate.
TEST(CampaignRuntime, DeterministicAcrossJobCountsOnSimulatedIsp) {
  const topo::SimulatedInternet internet =
      topo::build_internet({clean_isp()}, 11);
  const auto targets = internet.all_targets();
  ASSERT_GE(targets.size(), 20u);

  sim::Network net1(internet.topo);
  RuntimeConfig config1;
  config1.jobs = 1;
  CampaignRuntime runtime1(net1, internet.vantages.front(), config1);
  const CampaignReport report1 = runtime1.run("V", targets);

  sim::Network net4(internet.topo);
  RuntimeConfig config4;
  config4.jobs = 4;
  CampaignRuntime runtime4(net4, internet.vantages.front(), config4);
  const CampaignReport report4 = runtime4.run("V", targets);

  EXPECT_FALSE(report1.observations.subnets.empty());
  expect_identical_observations(report1.observations, report4.observations);
  // The accepted session lists agree too (same sessions a serial run keeps).
  ASSERT_EQ(report1.sessions.size(), report4.sessions.size());
  for (std::size_t i = 0; i < report1.sessions.size(); ++i)
    EXPECT_EQ(report1.sessions[i].path.destination,
              report4.sessions[i].path.destination);
}

TEST(CampaignRuntime, ByteIdenticalToSerialOnReferenceTopologies) {
  for (const bool geant : {false, true}) {
    const topo::ReferenceTopology ref =
        geant ? topo::geant_like(43) : topo::internet2_like(42);
    sim::Network serial_net(ref.topo);
    const eval::VantageObservations serial =
        eval::run_campaign(serial_net, ref.vantage, "utdallas", ref.targets, {});

    sim::Network parallel_net(ref.topo);
    RuntimeConfig config;
    config.jobs = 4;
    const eval::VantageObservations parallel = run_campaign_parallel(
        parallel_net, ref.vantage, "utdallas", ref.targets, config);
    expect_identical_observations(serial, parallel);
  }
}

TEST(CampaignRuntime, SharedStopSetSavesWireProbes) {
  const topo::SimulatedInternet internet =
      topo::build_internet({clean_isp()}, 11);
  // all_targets() holds one member per LAN, so none lies inside another's
  // subnet. Queue a second responsive member of every LAN after the whole
  // first pass: the stop set can skip those once their LAN has been grown.
  std::vector<net::Ipv4Addr> targets = internet.all_targets();
  const std::set<net::Ipv4Addr> first_pass(targets.begin(), targets.end());
  for (const topo::GroundTruthSubnet& truth :
       internet.isps.front().registry.all()) {
    // responsive.front() is the ingress, which is never a target.
    for (std::size_t i = 1; i < truth.responsive.size(); ++i) {
      if (first_pass.contains(truth.responsive[i])) continue;
      targets.push_back(truth.responsive[i]);
      break;
    }
  }
  ASSERT_GT(targets.size(), first_pass.size());

  // The campaign-wide reply cache stays off in both runs. With it on, two
  // workers missing on one key together both reach the wire, so the probe
  // count is schedule-dependent by a few probes either way. Without it each
  // session's wire cost is a pure function of its target, so the cost of a
  // run is fixed by which sessions it runs.
  sim::Network net_on(internet.topo);
  RuntimeConfig config_on;
  config_on.jobs = 2;
  config_on.share_probe_cache = false;
  CampaignRuntime runtime_on(net_on, internet.vantages.front(), config_on);
  const CampaignReport on = runtime_on.run("V", targets);

  sim::Network net_off(internet.topo);
  RuntimeConfig config_off;
  config_off.jobs = 2;
  config_off.share_probe_cache = false;
  config_off.share_stop_set = false;
  CampaignRuntime runtime_off(net_off, internet.vantages.front(), config_off);
  const CampaignReport off = runtime_off.run("V", targets);

  // Same canonical output either way; the stop set only sheds probe cost.
  expect_identical_observations(on.observations, off.observations);
  EXPECT_GT(on.stop_set_skips, 0u);
  EXPECT_LT(on.wire_probes, off.wire_probes);
  EXPECT_LT(on.sessions_run, off.sessions_run);
  EXPECT_GT(on.stop_set_prefixes, 0u);
}

TEST(CampaignRuntime, PacingDoesNotChangeResults) {
  test::Fig3Topology f;
  const std::vector<net::Ipv4Addr> targets = {f.pivot4, f.pivot3,
                                              ip("10.0.4.2")};
  sim::Network plain_net(f.topo);
  RuntimeConfig plain;
  plain.jobs = 2;
  const eval::VantageObservations unpaced =
      run_campaign_parallel(plain_net, f.vantage, "V", targets, plain);

  sim::Network paced_net(f.topo);
  RuntimeConfig throttled;
  throttled.jobs = 2;
  throttled.pps = 50'000.0;  // fast enough for tests, still exercises tokens
  MetricsRegistry registry;
  const eval::VantageObservations paced = run_campaign_parallel(
      paced_net, f.vantage, "V", targets, throttled, &registry);

  expect_identical_observations(unpaced, paced);
  EXPECT_GT(registry.counter("probe.wire").value(), 0u);
}

TEST(CampaignRuntime, RecordsMetrics) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  RuntimeConfig config;
  config.jobs = 2;
  MetricsRegistry registry;
  CampaignRuntime runtime(net, f.vantage, config, &registry);
  const CampaignReport report =
      runtime.run("V", {f.pivot4, f.pivot3, ip("10.0.4.2")});

  EXPECT_EQ(registry.counter("runtime.sessions").value(), report.sessions_run);
  EXPECT_EQ(registry.counter("probe.wire").value(), report.wire_probes);
  EXPECT_EQ(registry.histogram("session.latency_us").count(),
            report.sessions_run);
  EXPECT_GT(registry.counter("probe.shared_cache.misses").value(), 0u);
  const std::string text = registry.to_text();
  EXPECT_NE(text.find("session.latency_us"), std::string::npos);
}

TEST(CampaignRuntime, EmptyTargetListIsANoop) {
  test::Fig3Topology f;
  sim::Network net(f.topo);
  RuntimeConfig config;
  config.jobs = 4;
  const eval::VantageObservations obs =
      run_campaign_parallel(net, f.vantage, "V", {}, config);
  EXPECT_TRUE(obs.subnets.empty());
  EXPECT_EQ(obs.targets_total, 0u);
}

}  // namespace
}  // namespace tn::runtime
