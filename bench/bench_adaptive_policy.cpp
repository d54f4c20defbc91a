// Measures the adaptive probing policy (docs/PROBING.md, "Adaptive policy")
// against the fixed-window sweep on the wire-cost/wall-time plane: fixed
// windows {1, 4, 16, 64} plus `--window auto` on the Internet2-like
// reference campaign at rtt=2000 us under the virtual clock, jobs=1. Writes
// BENCH_adaptive_policy.json; tools/frontier_diff gates CI on every row
// against the committed file.
//
// Every windowed row runs the same controller and two-phase prescan
// (follow-ups only for candidates its liveness wave proved alive); a fixed
// window N pins the controller's window at N, `auto` lets feedback size it.
// The fixed sweep trades wire probes for wall time monotonically: window 1
// issues only what the walk demands but pays one round trip per probe;
// wider pinned windows collapse the round trips but speculate more per
// wave. The gate: the `auto` point sits ON the Pareto frontier (no row is
// at or below it on both axes and strictly below on one), and the subnet
// column is identical down every row.
//
// Both gated axes (wire_probes, sim_wire_time_us) are read off the
// deterministic virtual clock, so rows reproduce exactly run to run;
// wall_ms is the only noisy column and nothing gates on it.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/campaign.h"
#include "sim/vtime/scheduler.h"
#include "util/table.h"

namespace {

using namespace tn;
using Clock = std::chrono::steady_clock;

struct Run {
  int window = 1;  // 0 = adaptive ("auto")
  double wall_ms = 0.0;
  std::uint64_t sim_wire_time_us = 0;
  std::uint64_t wire_probes = 0;
  std::uint64_t waves = 0;
  std::uint64_t speculative_spent = 0;
  std::uint64_t speculative_saved = 0;
  std::uint64_t pace_adjustments = 0;
  std::uint64_t window_resizes = 0;
  std::size_t subnets = 0;

  std::string label() const {
    return window == 0 ? "auto" : std::to_string(window);
  }
  // Pareto domination on the gated axes: at least as good on both, strictly
  // better on one.
  bool dominates(const Run& other) const {
    return wire_probes <= other.wire_probes &&
           sim_wire_time_us <= other.sim_wire_time_us &&
           (wire_probes < other.wire_probes ||
            sim_wire_time_us < other.sim_wire_time_us);
  }
};

Run run_once(const topo::ReferenceTopology& ref, int window) {
  sim::vtime::Scheduler scheduler;
  sim::NetworkConfig net_config;
  net_config.wall_rtt_us = 2000;
  net_config.scheduler = &scheduler;
  sim::Network net(ref.topo, net_config);

  runtime::RuntimeConfig config;
  config.jobs = 1;
  if (window == 0)
    config.campaign.session.adaptive.enabled = true;
  else
    config.campaign.session.probe_window = window;
  runtime::MetricsRegistry metrics;
  runtime::CampaignRuntime campaign(net, ref.vantage, config, &metrics);

  const auto start = Clock::now();
  const runtime::CampaignReport report = campaign.run("utdallas", ref.targets);
  const std::chrono::duration<double, std::milli> elapsed =
      Clock::now() - start;

  Run out;
  out.window = window;
  out.wall_ms = elapsed.count();
  out.sim_wire_time_us = scheduler.now_us();
  out.wire_probes = report.wire_probes;
  out.waves = metrics.counter("probe.waves").value();
  out.speculative_spent = metrics.counter("probe.speculative_spent").value();
  out.speculative_saved = metrics.counter("probe.speculative_saved").value();
  out.pace_adjustments = metrics.counter("pace.adjustments").value();
  out.window_resizes = metrics.counter("probe.window_resizes").value();
  out.subnets = report.observations.subnets.size();
  return out;
}

std::string ms(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_adaptive_policy.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];

  std::printf("== Adaptive probing policy: wire-cost/wall-time frontier ==\n\n");
  const topo::ReferenceTopology ref =
      topo::internet2_like(tn::bench::kInternet2Seed);
  std::printf(
      "Internet2-like reference, %zu targets, rtt=2000 us, virtual clock, "
      "jobs=1\n\n",
      ref.targets.size());

  std::vector<Run> runs;
  for (const int window : {1, 4, 16, 64, 0}) runs.push_back(run_once(ref, window));
  const Run& adaptive = runs.back();

  util::Table table({"window", "wire probes", "wire ms", "wall ms", "waves",
                     "spec spent", "spec saved", "resizes", "subnets"});
  for (const Run& run : runs)
    table.add_row({run.label(), std::to_string(run.wire_probes),
                   ms(static_cast<double>(run.sim_wire_time_us) / 1e3),
                   ms(run.wall_ms), std::to_string(run.waves),
                   std::to_string(run.speculative_spent),
                   std::to_string(run.speculative_saved),
                   std::to_string(run.window_resizes),
                   std::to_string(run.subnets)});
  std::printf("%s", table.render().c_str());

  bool dominated_by_fixed = false;
  bool subnets_diverge = false;
  for (const Run& run : runs) {
    if (run.window == 0) continue;
    if (run.dominates(adaptive)) dominated_by_fixed = true;
    if (run.subnets != adaptive.subnets) subnets_diverge = true;
  }

  std::printf(
      "\nexpected: the adaptive row sits on the Pareto frontier (no fixed\n"
      "window is at or below it on both wire probes and simulated wire\n"
      "time), and the subnet column is identical down every row — the\n"
      "policy only moves probes in time, never the output.\n");

  std::string json =
      "{\"bench\":\"adaptive_policy\",\"topology\":\"internet2\",\"targets\":" +
      std::to_string(ref.targets.size()) +
      ",\"rtt_us\":2000,\"jobs\":1,\"virtual\":true,\"rows\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (i != 0) json += ",";
    json += "{\"window\":\"" + run.label() + "\"" +
            ",\"wire_probes\":" + std::to_string(run.wire_probes) +
            ",\"sim_wire_time_us\":" + std::to_string(run.sim_wire_time_us) +
            ",\"wall_ms\":" + ms(run.wall_ms) +
            ",\"waves\":" + std::to_string(run.waves) +
            ",\"speculative_spent\":" + std::to_string(run.speculative_spent) +
            ",\"speculative_saved\":" + std::to_string(run.speculative_saved) +
            ",\"pace_adjustments\":" + std::to_string(run.pace_adjustments) +
            ",\"window_resizes\":" + std::to_string(run.window_resizes) +
            ",\"subnets\":" + std::to_string(run.subnets) + "}";
  }
  json += "]}";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 2;
  }

  if (dominated_by_fixed || subnets_diverge) {
    std::fprintf(stderr, "FAIL: adaptive row %s\n",
                 subnets_diverge ? "changed the collected subnets"
                                 : "is dominated by a fixed window");
    return 1;
  }
  return 0;
}
