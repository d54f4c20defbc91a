// Accuracy lab: ground-truth scorecards over an adversarial scenario grid.
//
// The chaos suite pins *determinism* under faults; this module pins
// *accuracy*. Every grid cell runs one full campaign on a pinned reference
// topology under one adversarial condition — loss sweeps, anonymous-router
// densities, black-holed TTL ranges, ICMP rate limits, mid-campaign routing
// churn, MPLS-like hop hiding, per-packet multipath, firewalled extremes —
// and classifies the inferred subnets against topo::GroundTruth through
// eval::classify (the paper's Tables 1–2 taxonomy, with the
// unresponsiveness audit). Cell results aggregate into a Scorecard with a
// stable JSON schema (ACCURACY_scorecard.json, docs/ACCURACY.md) that
// tools/accuracy_diff compares across commits: baseline cells must match
// exactly, fault cells must stay within their declared tolerance band.
//
// Determinism: a cell's result is a pure function of (cell, grid config).
// Campaigns run through the parallel runtime's target-order merge, fault
// draws are content-keyed, and the audit probes a *fresh* network (the
// campaign network's rate-limiter clock depends on the probe schedule), so
// the emitted JSON is byte-identical across --jobs and --window and across
// wall vs virtual clocks (pinned by tests/chaos + tests/accuracy).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/classification.h"

namespace tn::eval {

// Programmatic scenario knobs the fault-spec text cannot express without
// naming generated nodes (applied on top of the parsed spec).
enum class CellMutation : std::uint8_t {
  kNone,
  kAnonymousEveryNth,  // every arg-th router is anonymous
  kPerPacketLb,        // per-packet load balancing on every router
  kPerDestAddrEcmp,    // adversarial ECMP: hash per address, not per subnet
  kFirewallEveryNth,   // every arg-th registered subnet firewalled
};

// One cell of the adversarial grid: a scenario name, a pinned reference
// topology, and the fault condition to run it under.
struct ScenarioCell {
  std::string scenario;    // row key, e.g. "loss20"
  std::string topology;    // "internet2" | "geant"
  std::string fault_spec;  // parse_fault_spec text; "" = no faults
  CellMutation mutation = CellMutation::kNone;
  int mutation_arg = 0;
  // Allowed absolute drift of the rate fields before accuracy_diff flags a
  // regression. 0 pins the cell exactly (baseline cells).
  double tolerance = 0.0;
};

// One cell's verdict histogram: exactly one verdict per registered truth
// subnet, bucketed by MatchClass, with the paper's unresponsiveness audit
// split for missing/underestimated. Deliberately excludes every
// schedule-dependent quantity (wire probes, timings, NetworkStats) so the
// JSON stays byte-identical across probing schedules.
struct CellResult {
  ScenarioCell cell;
  int truth_subnets = 0;
  int counts[6] = {};  // per MatchClass, in kAllMatchClasses order
  int miss_unresponsive = 0;  // missing subnets the audit blames on silence
  int undes_unresponsive = 0;  // underestimated, ditto
  double exact_rate = 0.0;
  double exact_rate_responsive = 0.0;  // excluding unresponsive subnets
  double miss_under_rate = 0.0;        // (missing + underestimated) / truth

  int count(MatchClass match) const noexcept {
    return counts[static_cast<std::size_t>(match)];
  }
};

struct Scorecard {
  std::vector<CellResult> cells;

  // Stable JSON: one cell object per line, fixed key order, rates at fixed
  // precision — the committed ACCURACY_scorecard.json format.
  std::string to_json() const;

  // Strict reader for to_json's own schema (line-oriented, no JSON
  // dependency — the trace/reader.h approach). Throws std::runtime_error
  // naming the offending line/key on malformed input.
  static Scorecard from_json(const std::string& text);

  const CellResult* find(std::string_view scenario,
                         std::string_view topology) const noexcept;
};

// How to drive the campaigns of a grid run. Defaults reproduce the
// committed scorecard; jobs/window/virtual-time must not change any cell.
struct ScorecardRunConfig {
  bool virtual_time = false;  // emulated RTTs elapse on a discrete-event clock
  int jobs = 1;
  int probe_window = 1;
};

// Runs one cell end to end: build the pinned reference, apply the scenario,
// run the campaign (parallel runtime), classify against ground
// truth on a fresh audit network carrying the same faults.
CellResult run_cell(const ScenarioCell& cell,
                    const ScorecardRunConfig& config = {});

Scorecard run_grid(std::span<const ScenarioCell> cells,
                   const ScorecardRunConfig& config = {});

// The committed adversarial grid: 13 scenario families x both references.
std::vector<ScenarioCell> default_grid();

}  // namespace tn::eval
