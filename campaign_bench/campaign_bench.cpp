// Campaign benchmark: runs seeded tracenet campaigns through the
// public runtime::CampaignRuntime API under virtual time and prints one JSON
// result line. README.md in this directory explains the workloads, the
// metric definitions and why each exists.
//
//   campaign_bench --workload isp_serial|isp_parallel|ref_lossy
//                  --seed N --seconds S --trace 0|1
//
// A run covers a fixed list of scenes (generated networks), each built from
// its own sub-seed of N. --trace 0 runs every scene once for the work
// counts and revisits the first few (the timed scenes) until S seconds have
// passed, and reports the end-to-end metrics: work counts summed over all
// scenes, times summed over the timed scenes' median visits, each visit
// scaled by a host speed gauge (HostGauge below).
// --trace 1 makes traced passes over the first quarter of the scenes
// instead and reports the per-layer metrics: timing decorators at the
// sim/probe and probe/core boundaries, spans around the session, the
// campaign merge, the topology generators and the network constructor, and
// the counters the runtime publishes in its MetricsRegistry.
//
// Every output check fails the run: the result line then carries
// "correct": false and the exit code is 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "eval/campaign.h"
#include "probe/shared_cache.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/network.h"
#include "sim/vtime/scheduler.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace {

using namespace tn;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kRttUs = 2000;  // emulated round trip per wave
constexpr std::size_t kMinTimedVisits = 3;  // visits per timed scene, at least

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Heap bytes in use (arena + mmapped chunks), in MB.
double heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(values.size() - 1, index)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Scene 0 is built from the seed itself, so `--seed 7` scene 0 of the ISP
// workloads is the repository's demo internet.
std::uint64_t scene_seed(std::uint64_t seed, std::size_t index) {
  return index == 0 ? seed : mix(seed ^ mix(index));
}

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// FNV-1a over the subnets a campaign merged: prefixes and member lists.
void digest_subnets(std::uint64_t& h, const eval::VantageObservations& obs) {
  const auto feed = [&h](std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= kFnvPrime;
    }
  };
  for (const core::ObservedSubnet& subnet : obs.subnets) {
    feed(subnet.prefix.network().value());
    feed(static_cast<std::uint32_t>(subnet.prefix.length()));
    for (const net::Ipv4Addr member : subnet.members) feed(member.value());
  }
  feed(0xFFFFFFFFu);  // campaign separator
}

// --- Workloads ---------------------------------------------------------------

struct Vantage {
  sim::NodeId node;
  std::string name;
  std::uint16_t flow_id;
};

// One generated network and the campaigns run on it, one per vantage.
struct Scene {
  sim::Topology topo;
  std::vector<Vantage> vantages;
  std::vector<net::Ipv4Addr> targets;
  std::vector<std::pair<sim::NodeId, double>> rate_limits;
  sim::FaultSpec faults;
};

struct Workload {
  std::string name;
  int jobs = 1;
  int window = 0;  // fixed probe window; 0 = --window auto
  std::size_t scenes = 1;
  std::size_t timed_scenes = 1;  // scenes [0, timed_scenes) carry the times
  std::function<std::unique_ptr<Scene>(std::uint64_t seed, std::size_t index)> generate;
};

std::unique_ptr<Scene> internet_scene(const std::vector<topo::IspProfile>& profiles,
                                      std::uint64_t seed, std::size_t vantages) {
  topo::SimulatedInternet inet = topo::build_internet(profiles, seed);
  auto scene = std::make_unique<Scene>();
  for (std::size_t v = 0; v < vantages; ++v)
    scene->vantages.push_back({inet.vantages[v], inet.vantage_names[v],
                               static_cast<std::uint16_t>(v + 1)});
  scene->targets = inet.all_targets();
  scene->rate_limits = inet.rate_limit_plan;
  scene->topo = std::move(inet.topo);
  return scene;
}

std::unique_ptr<Scene> reference_scene(topo::ReferenceTopology ref,
                                       std::uint64_t fault_seed) {
  auto scene = std::make_unique<Scene>();
  scene->vantages.push_back({ref.vantage, ref.name, 0});
  scene->targets = std::move(ref.targets);
  scene->faults.seed = fault_seed;
  scene->faults.default_policy.probe_loss = 0.20;
  scene->topo = std::move(ref.topo);
  return scene;
}

std::vector<Workload> workloads() {
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<Workload> out;

  // §4.2: three vantages over the four default ISPs, rate limits installed.
  out.push_back({"isp_serial", 1, 0, 24, 8, [](std::uint64_t seed, std::size_t i) {
                   return internet_scene(topo::default_isp_profiles(), scene_seed(seed, i), 3);
                 }});

  // Twice the subnets, with every order-dependent reply source switched off
  // so a parallel run must reproduce the serial subnets exactly. Not listed
  // in BENCHMARK.json: its wall time swings 4x with host CPU steal (README).
  out.push_back({"isp_parallel", std::min(4, cores), 0, 12, 3,
                 [](std::uint64_t seed, std::size_t i) {
                   std::vector<topo::IspProfile> profiles = topo::default_isp_profiles();
                   for (topo::IspProfile& profile : profiles) {
                     for (auto& [length, count] : profile.subnet_counts) count *= 2;
                     profile.response_flakiness = 0.0;
                     profile.per_packet_lb_fraction = 0.0;
                     profile.rate_limited_router_fraction = 0.0;
                   }
                   return internet_scene(profiles, scene_seed(seed, i), 1);
                 }});

  // Internet2-like and GEANT-like pairs under keyed 20% probe loss.
  out.push_back({"ref_lossy", 1, 16, 32, 16, [](std::uint64_t seed, std::size_t i) {
                   const std::uint64_t base = scene_seed(seed, i / 2);
                   return i % 2 == 0
                              ? reference_scene(topo::internet2_like(base), mix(base + 1))
                              : reference_scene(topo::geant_like(mix(base)), mix(base + 2));
                 }});
  return out;
}

// A scene set up to be probed: its scheduler, network, limiters and faults.
struct Live {
  explicit Live(const Scene& scene)
      : network(scene.topo, [this] {
          sim::NetworkConfig config;
          config.wall_rtt_us = kRttUs;
          config.scheduler = &scheduler;
          return config;
        }()) {
    for (const auto& [node, pps] : scene.rate_limits)
      network.set_rate_limiter(node, sim::RateLimiter(pps, 5.0));
    if (scene.faults.enabled()) network.set_faults(scene.faults);
  }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  sim::vtime::Scheduler scheduler;
  sim::Network network;
};

runtime::RuntimeConfig runtime_config(const Workload& w, const Vantage& v, int jobs) {
  runtime::RuntimeConfig config;
  config.jobs = jobs;
  config.campaign.session.flow_id = v.flow_id;
  config.campaign.session.adaptive.enabled = w.window == 0;
  if (w.window > 0) config.campaign.session.probe_window = w.window;
  return config;
}

// --- Campaign outcome and its checks -----------------------------------------

struct Outcome {
  std::uint64_t targets = 0;  // targets in the lists, over all campaigns
  std::uint64_t traced = 0;
  std::uint64_t responding = 0;
  std::uint64_t wire = 0;
  std::uint64_t virtual_us = 0;
  std::uint64_t subnets = 0;  // distinct non-/32 prefixes per scene, summed
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  std::vector<std::string> errors;

  // Folds in the campaigns of one scene.
  void add_scene(const std::vector<eval::VantageObservations>& campaigns) {
    std::set<net::Prefix> prefixes;
    for (const eval::VantageObservations& obs : campaigns) {
      targets += obs.targets_total;
      traced += obs.targets_traced;
      responding += obs.targets_responding;
      digest_subnets(digest, obs);
      for (const core::ObservedSubnet& subnet : obs.subnets)
        if (subnet.prefix.length() < 32) prefixes.insert(subnet.prefix);
      if (obs.targets_traced + obs.targets_covered != obs.targets_total)
        errors.push_back(obs.vantage + ": traced + covered != targets");
    }
    if (prefixes.empty()) errors.push_back("a scene found no subnets");
    subnets += prefixes.size();
  }

  bool same_subnets(const Outcome& o) const {
    return subnets == o.subnets && digest == o.digest;
  }
  // The counts a serial run must repeat exactly.
  bool same_counts(const Outcome& o) const {
    return same_subnets(o) && wire == o.wire && virtual_us == o.virtual_us &&
           traced == o.traced && responding == o.responding;
  }
};

// Runs the scene's campaigns, one per vantage, through CampaignRuntime.
Outcome run_campaigns(const Workload& w, const Scene& scene, Live& live, int jobs,
                      runtime::MetricsRegistry& registry,
                      std::vector<runtime::CampaignReport>* reports = nullptr) {
  Outcome out;
  std::vector<eval::VantageObservations> campaigns;
  for (const Vantage& v : scene.vantages) {
    runtime::CampaignRuntime rt(live.network, v.node, runtime_config(w, v, jobs), &registry);
    const std::uint64_t vt_before = live.scheduler.now_us();
    runtime::CampaignReport report = rt.run(v.name, scene.targets);
    out.virtual_us += live.scheduler.now_us() - vt_before;
    out.wire += report.wire_probes;
    campaigns.push_back(report.observations);
    if (reports != nullptr) reports->push_back(std::move(report));
  }
  out.add_scene(campaigns);
  return out;
}

// The serial eval::run_campaign over the same scene: the reference a
// parallel run must reproduce.
Outcome run_serial_eval(const Workload& w, const Scene& scene) {
  Live live(scene);
  std::vector<eval::VantageObservations> campaigns;
  for (const Vantage& v : scene.vantages)
    campaigns.push_back(eval::run_campaign(live.network, v.node, v.name, scene.targets,
                                           runtime_config(w, v, 1).campaign));
  Outcome out;
  out.add_scene(campaigns);
  return out;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  // Records the errors of one attempt.
  void attempt(const std::vector<std::string>& found) {
    ++attempted;
    if (!found.empty()) ++failed;
    errors.insert(errors.end(), found.begin(), found.end());
  }
};

// --- Untraced run: end-to-end metrics ----------------------------------------

// Host speed gauge. Other tenants of the host contend for its caches and
// memory for minutes at a time, and slow the campaigns by up to 1.8x while
// they do; the fastest or the median visit of a run cannot see past a phase
// that outlasts the run. The gauge times a fixed kernel of this file, a
// dependent walk through a random cycle over a table that fits the
// last-level cache only while nothing else contends for it, right before
// and right after each timed visit. Its time tracks the slowdown of the
// campaigns, and a visit's times are divided by the mean of the two
// readings: the time the visit would take with the kernel at its reference
// speed.
class HostGauge {
 public:
  HostGauge() : next_(kEntries) {
    // Sattolo's shuffle: one cycle through every entry.
    for (std::size_t i = 0; i < kEntries; ++i) next_[i] = static_cast<std::uint32_t>(i);
    std::uint64_t state = 1;
    for (std::size_t i = kEntries - 1; i > 0; --i) {
      state = mix(state);
      std::swap(next_[i], next_[state % i]);
    }
  }

  // The slowdown factor right now: kernel time / kGaugeRefS.
  double slowdown() {
    const auto start = Clock::now();
    std::uint32_t at = at_;
    for (int k = 0; k < kSteps; ++k) at = next_[at];
    // Keeps the walk before the clock read: nothing outside this class can
    // see the table, so the compiler could otherwise move the loads past it.
    asm volatile("" : "+r"(at) : : "memory");
    at_ = at;
    return seconds_since(start) / kGaugeRefS;
  }

  double mb() const {
    return static_cast<double>(next_.size() * sizeof(std::uint32_t)) / (1024.0 * 1024.0);
  }

 private:
  static constexpr std::size_t kEntries = std::size_t{12} << 20;  // 48 MB
  static constexpr int kSteps = 200'000;
  // The kernel's time on an uncontended 4-core Xeon (Sapphire Rapids,
  // 105 MB L3). It fixes the unit only: every run divides by the same value.
  static constexpr double kGaugeRefS = 0.035;

  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

// A timed scene's visits: set-up, campaign wall and CPU times, each scaled
// by the gauge readings around the visit.
struct SceneRuns {
  std::vector<double> setup_s, wall_s, cpu_s;
  std::optional<Outcome> first;
};

Result end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Result result;
  const bool serial = w.jobs == 1;
  const std::size_t timed = std::min(w.timed_scenes, w.scenes);
  std::vector<SceneRuns> runs(w.scenes);
  HostGauge gauge;
  const auto start = Clock::now();
  // Round-robin over the timed scenes, each visit followed by one scene not
  // yet run, so the timed visits spread over the whole run. It ends once
  // every scene ran, every timed scene has kMinTimedVisits (the revisits
  // are the repeat-a-seed check) and the run time is used up.
  std::size_t next_timed = 0, next_untimed = timed;
  bool timed_turn = true;
  while (next_untimed < w.scenes || runs[timed - 1].wall_s.size() < kMinTimedVisits ||
         seconds_since(start) < seconds) {
    const bool take_timed = timed_turn || next_untimed == w.scenes;
    timed_turn = !take_timed;
    const std::size_t index = take_timed ? next_timed++ % timed : next_untimed++;
    SceneRuns& r = runs[index];
    const double slowdown_before = index < timed ? gauge.slowdown() : 1.0;

    const auto t = Clock::now();
    const std::unique_ptr<Scene> scene = w.generate(seed, index);
    Live live(*scene);
    const double setup = seconds_since(t);

    runtime::MetricsRegistry registry;
    const double cpu_start = cpu_seconds();
    const auto campaign_start = Clock::now();
    Outcome o = run_campaigns(w, *scene, live, w.jobs, registry);
    const double wall = seconds_since(campaign_start);
    const double cpu = cpu_seconds() - cpu_start;
    if (index < timed) {
      const double slowdown = (slowdown_before + gauge.slowdown()) / 2.0;
      r.setup_s.push_back(setup / slowdown);
      r.wall_s.push_back(wall / slowdown);
      r.cpu_s.push_back(cpu / slowdown);
    }
    if (r.first && !(serial ? o.same_counts(*r.first) : o.same_subnets(*r.first)))
      o.errors.push_back("two runs of one seed disagree");
    if (!r.first) r.first = o;
    result.attempt(o.errors);
  }
  const double rss = peak_rss_mb() - gauge.mb();

  std::vector<std::string> errors;
  if (!serial) {
    // The parallel subnets must equal a serial run over the same inputs.
    if (!run_serial_eval(w, *w.generate(seed, 0)).same_subnets(*runs[0].first))
      errors.push_back("parallel subnets differ from serial eval::run_campaign");
  } else {
    // A second seed must reach the generator and change the counts.
    const auto other = w.generate(seed + 1, 0);
    Live live(*other);
    runtime::MetricsRegistry registry;
    if (run_campaigns(w, *other, live, w.jobs, registry).same_counts(*runs[0].first))
      errors.push_back("a second seed left the campaign counts unchanged");
  }
  result.attempt(errors);

  // Times: per-scene medians over visits, summed over the timed scenes.
  // Counts: first visits, summed over all scenes.
  double setup = 0, wall = 0, cpu = 0, timed_targets = 0;
  for (std::size_t index = 0; index < timed; ++index) {
    setup += median(runs[index].setup_s);
    wall += median(runs[index].wall_s);
    cpu += median(runs[index].cpu_s);
    timed_targets += static_cast<double>(runs[index].first->targets);
  }
  Outcome total;
  for (const SceneRuns& r : runs) {
    total.targets += r.first->targets;
    total.traced += r.first->traced;
    total.responding += r.first->responding;
    total.wire += r.first->wire;
    total.virtual_us += r.first->virtual_us;
    total.subnets += r.first->subnets;
  }
  const auto targets = static_cast<double>(total.targets);
  result.metrics = {
      {"setup_s", {setup, "s"}},
      {"targets_per_s", {timed_targets / wall, "1/s"}},
      {"cpu_us_per_target", {cpu * 1e6 / timed_targets, "us"}},
      {"wire_probes_per_target", {static_cast<double>(total.wire) / targets, "probes"}},
      {"map_wire_s", {static_cast<double>(total.virtual_us) * 1e-6, "s"}},
      {"subnets_found", {static_cast<double>(total.subnets), "count"}},
      {"unreached_share",
       {ratio(static_cast<double>(total.traced - total.responding),
              static_cast<double>(total.traced)),
        "ratio"}},
      {"peak_rss_mb", {rss, "MB"}}};
  return result;
}

// --- Traced run: per-layer metrics -------------------------------------------

// Pass-through engine that times and counts what crosses one layer boundary.
// The traced replay is serial, so plain members suffice.
class BoundaryProbe final : public probe::ProbeEngine {
 public:
  explicit BoundaryProbe(probe::ProbeEngine& inner) noexcept : inner_(inner) {}

  double busy_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t probes = 0;
  std::uint64_t retry_probes = 0;  // Probe::attempt > 0

 private:
  net::ProbeReply do_probe(const net::Probe& request) override {
    const auto start = Clock::now();
    net::ProbeReply reply = inner_.probe(request);
    busy_s += seconds_since(start);
    note(std::span<const net::Probe>(&request, 1));
    return reply;
  }

  std::vector<net::ProbeReply> do_probe_batch(std::span<const net::Probe> requests) override {
    const auto start = Clock::now();
    std::vector<net::ProbeReply> replies = inner_.probe_batch(requests);
    busy_s += seconds_since(start);
    note(requests);
    return replies;
  }

  void note(std::span<const net::Probe> requests) {
    ++calls;
    probes += requests.size();
    for (const net::Probe& p : requests) retry_probes += p.attempt > 0 ? 1 : 0;
  }

  probe::ProbeEngine& inner_;
};

// Spans and counts of the decorated serial replay, summed over scenes.
struct Replay {
  double wall_s = 0.0;
  double sim_busy_s = 0.0;
  double below_core_s = 0.0;  // time inside the probe/core boundary
  double session_s = 0.0;
  double merge_s = 0.0;
  std::uint64_t covered_calls = 0;
  std::uint64_t sim_calls = 0, sim_probes = 0, sim_retry_probes = 0, core_probes = 0;
  std::uint64_t subnets = 0;
  std::vector<double> session_wall_ms, session_wire_ms;
};

// The runtime's jobs=1 probe stack rebuilt from public types, with a
// BoundaryProbe between sim and probe and another between probe and core,
// driven by the serial campaign loop of eval::run_campaign.
Outcome run_replay(const Workload& w, const Scene& scene, Live& live, Replay& out) {
  const auto start = Clock::now();
  std::vector<eval::VantageObservations> campaigns;
  Outcome result;
  for (const Vantage& v : scene.vantages) {
    probe::SimProbeEngine wire(live.network, v.node);
    BoundaryProbe sim_edge(wire);
    probe::SharedCachingProbeEngine shared(sim_edge);
    if (live.network.faults_enabled()) shared.set_cache_unresponsive(false);
    BoundaryProbe core_edge(shared);
    core::SessionConfig config = runtime_config(w, v, 1).campaign.session;
    config.clock = &live.scheduler;
    core::TracenetSession session(core_edge, config);
    sim::vtime::Scheduler::WorkerGuard guard(live.scheduler);

    eval::CampaignAccumulator acc(v.name, scene.targets.size());
    const std::uint64_t vt_before = live.scheduler.now_us();
    for (std::size_t index = 0; index < scene.targets.size(); ++index) {
      const net::Ipv4Addr target = scene.targets[index];
      sim::vtime::Scheduler::set_current_ordinal(index);
      session.set_epoch(live.network.faults().epoch_of(index));
      auto t = Clock::now();
      const bool skip = acc.covered(target);
      out.merge_s += seconds_since(t);
      ++out.covered_calls;
      if (skip) {
        acc.note_covered();
        continue;
      }
      const std::uint64_t vt = live.scheduler.now_us();
      t = Clock::now();
      const core::SessionResult session_result = session.run(target);
      const double wall = seconds_since(t);
      out.session_s += wall;
      out.session_wall_ms.push_back(wall * 1e3);
      out.session_wire_ms.push_back(static_cast<double>(live.scheduler.now_us() - vt) * 1e-3);
      t = Clock::now();
      acc.add(session_result);
      out.merge_s += seconds_since(t);
    }
    const auto t = Clock::now();
    campaigns.push_back(acc.finalize());
    out.merge_s += seconds_since(t);
    result.virtual_us += live.scheduler.now_us() - vt_before;
    result.wire += wire.probes_issued();
    out.sim_busy_s += sim_edge.busy_s;
    out.below_core_s += core_edge.busy_s;
    out.sim_calls += sim_edge.calls;
    out.sim_probes += sim_edge.probes;
    out.sim_retry_probes += sim_edge.retry_probes;
    out.core_probes += core_edge.probes;
  }
  result.add_scene(campaigns);
  out.subnets += result.subnets;
  out.wall_s += seconds_since(start);
  return result;
}

using LayerSamples = std::map<std::string, std::pair<std::vector<double>, const char*>>;

// One traced pass over the first quarter of the workload's scenes (the
// decorated replay and the extra serial run make a scene cost about twice
// its untraced time).
void traced_pass(const Workload& w, std::uint64_t seed, LayerSamples& layers,
                 Result& result) {
  double build_s = 0, init_s = 0, routes_s = 0, routes_mb = 0;
  double runtime_wall = 0, runtime_cpu = 0, serial_wall = 0;
  std::uint64_t probes_injected = 0, silent = 0;
  std::uint64_t sessions_run = 0, fallbacks = 0, accepted = 0;
  runtime::MetricsRegistry m;
  Replay r;
  for (std::size_t index = 0; index < std::max<std::size_t>(1, w.scenes / 4); ++index) {
    std::vector<std::string> errors;
    auto t = Clock::now();
    const std::unique_ptr<Scene> scene = w.generate(seed, index);
    build_s += seconds_since(t);
    std::optional<Live> live;

    // Cold routing: every subnet's routes from the first vantage on a fresh
    // network, outside any campaign timing.
    t = Clock::now();
    live.emplace(*scene);
    init_s += seconds_since(t);
    const double heap_before = heap_mb();
    t = Clock::now();
    const sim::NodeId from = scene->vantages.front().node;
    for (std::size_t s = 0; s < scene->topo.subnet_count(); ++s)
      (void)live->network.routing().distance(from, static_cast<sim::SubnetId>(s));
    routes_s += seconds_since(t);
    routes_mb = std::max(routes_mb, heap_mb() - heap_before);

    // The campaign through CampaignRuntime, read from its registry.
    live.emplace(*scene);
    std::vector<runtime::CampaignReport> reports;
    const double cpu_start = cpu_seconds();
    t = Clock::now();
    const Outcome untraced = run_campaigns(w, *scene, *live, w.jobs, m, &reports);
    const double scene_wall = seconds_since(t);
    runtime_wall += scene_wall;
    runtime_cpu += cpu_seconds() - cpu_start;
    const sim::NetworkStats stats = live->network.stats();
    probes_injected += stats.probes_injected;
    silent += stats.silent;
    for (const runtime::CampaignReport& report : reports) {
      sessions_run += report.sessions_run;
      fallbacks += report.fallback_sessions;
      accepted += report.sessions.size();
    }
    errors.insert(errors.end(), untraced.errors.begin(), untraced.errors.end());

    // An undecorated jobs=1 run: the base of trace.overhead_ratio, and the
    // wire count the replay must reproduce.
    std::uint64_t serial_wire = untraced.wire;
    if (w.jobs == 1) {
      serial_wall += scene_wall;
    } else {
      live.emplace(*scene);
      runtime::MetricsRegistry scratch;
      t = Clock::now();
      serial_wire = run_campaigns(w, *scene, *live, 1, scratch).wire;
      serial_wall += seconds_since(t);
    }

    live.emplace(*scene);
    const Outcome replayed = run_replay(w, *scene, *live, r);
    if (!replayed.same_subnets(untraced))
      errors.push_back("traced replay subnets differ from the untraced run");
    if (replayed.wire != serial_wire)
      errors.push_back("traced replay wire probes differ from a jobs=1 runtime run");
    result.attempt(errors);
  }

  const auto put = [&layers](const std::string& name, double value, const char* unit) {
    auto& slot = layers[name];
    slot.first.push_back(value);
    slot.second = unit;
  };
  const auto count = [&m](const char* name) {
    return static_cast<double>(m.counter(name).value());
  };
  const auto num = [](std::uint64_t v) { return static_cast<double>(v); };

  put("topo.build_s", build_s, "s");
  put("sim.network_init_s", init_s, "s");
  put("sim.routes_cold_s", routes_s, "s");
  put("sim.routes_rss_mb", routes_mb, "MB");

  // Runtime-side counters (the workload's own jobs value).
  const double logical = num(m.histogram("session.probes").sum());
  const double hits = count("probe.shared_cache.hits");
  const double misses = count("probe.shared_cache.misses");
  const double wire = count("probe.wire");
  const double virtual_s = count("time.virtual_us") * 1e-6;
  const double executed = num(sessions_run + fallbacks);
  const double spent = count("probe.speculative_spent");
  const double saved = count("probe.speculative_saved");
  put("sim.silent_share", ratio(num(silent), num(probes_injected)), "ratio");
  put("sim.rate_limited", count("probe.rate_limited"), "count");
  put("sim.fault_drops", count("probe.drops"), "count");
  put("probe.logical", logical, "count");
  put("probe.shared_cache.hits", hits, "count");
  put("probe.shared_cache.misses", misses, "count");
  put("probe.shared_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  put("probe.wire", wire, "count");
  put("probe.funnel_residual", logical - hits - misses, "count");
  put("probe.funnel_residual_wire", misses - wire, "count");
  put("probe.retries", count("probe.retries"), "count");
  put("probe.retries_absorbed", count("probe.retries") - num(r.sim_retry_probes), "count");
  put("probe.waves", count("probe.waves"), "count");
  put("probe.window_occupancy_mean", m.histogram("probe.window_occupancy").mean(), "probes");
  put("probe.speculative_spent", spent, "count");
  put("probe.speculative_saved", saved, "count");
  put("probe.speculative_waste_ratio", ratio(spent - saved, spent), "ratio");
  put("runtime.sessions", num(sessions_run), "count");
  put("runtime.stopset.skips", count("runtime.stopset.skips"), "count");
  put("runtime.fallback_sessions", num(fallbacks), "count");
  put("runtime.discarded_session_share", ratio(executed - num(accepted), executed), "ratio");
  put("runtime.cpu_over_wall", ratio(runtime_cpu, runtime_wall), "ratio");
  put("vtime.virtual_s", virtual_s, "s");
  put("vtime.wall_per_virtual_ms", ratio(runtime_wall * 1e3, virtual_s), "ms/s");

  // Decorated serial replay: sim, probe, core and eval spans.
  put("sim.probe_calls", num(r.sim_calls), "count");
  put("sim.wire_probes", num(r.sim_probes), "count");
  put("sim.busy_s", r.sim_busy_s, "s");
  put("sim.us_per_probe", ratio(r.sim_busy_s * 1e6, num(r.sim_probes)), "us");
  put("sim.retry_wire_probes", num(r.sim_retry_probes), "count");
  put("probe.self_s", r.below_core_s - r.sim_busy_s, "s");
  put("core.self_s", r.session_s - r.below_core_s, "s");
  put("core.session_wall_ms_p50", quantile(r.session_wall_ms, 0.50), "ms");
  put("core.session_wall_ms_p99", quantile(r.session_wall_ms, 0.99), "ms");
  put("core.session_wire_ms_p50", quantile(r.session_wire_ms, 0.50), "ms");
  put("core.session_wire_ms_p99", quantile(r.session_wire_ms, 0.99), "ms");
  put("core.probes_per_subnet", ratio(num(r.core_probes), num(r.subnets)), "probes");
  put("eval.merge_s", r.merge_s, "s");
  put("eval.covered_calls", num(r.covered_calls), "count");
  put("trace.overhead_ratio", ratio(r.wall_s, serial_wall), "ratio");
}

Result per_layer(const Workload& w, std::uint64_t seed, double seconds) {
  Result result;
  LayerSamples layers;
  const auto start = Clock::now();
  do {
    traced_pass(w, seed, layers, result);
  } while (seconds_since(start) < seconds);
  for (const auto& [name, samples] : layers)
    result.metrics.emplace(name, Metric{median(samples.first), samples.second});
  return result;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload isp_serial|isp_parallel|ref_lossy "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.contains("workload") ||
      !args.contains("seed") || !args.contains("seconds") || !args.contains("trace"))
    return usage();

  std::optional<Workload> workload;
  for (Workload& w : workloads())
    if (w.name == args["workload"]) workload = std::move(w);
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (!workload || *end != '\0') return usage();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return usage();
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") return usage();

  const Result result = trace == "1" ? per_layer(*workload, seed, seconds)
                                     : end_to_end(*workload, seed, seconds);

  for (const std::string& e : result.errors)
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.errors.empty() ? 0 : 1;
}
