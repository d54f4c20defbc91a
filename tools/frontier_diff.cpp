// frontier_diff: regression gate over two adaptive-policy frontier benches.
//
//   frontier_diff OLD.json NEW.json
//
// Compares NEW (a freshly regenerated BENCH_adaptive_policy.json) against
// OLD (the committed baseline) and exits nonzero when the wave policy lost
// ground on the wire-cost/wall-time plane:
//
//   - a window row present in OLD but missing from NEW (sweep shrank),
//   - any row, fixed or adaptive, worse than its OLD row on either axis
//     (wire probes, simulated wire time) by more than kBand,
//   - the adaptive row becoming dominated: some fixed row at or below it on
//     both axes and better than it by more than kBand on one,
//   - the subnet count diverging between any two rows of NEW (the policy
//     must never change the collected output).
//
// Both gated axes are deterministic under the virtual clock, so the band
// exists only to absorb deliberate small policy retunes without a pin
// update; genuine frontier regressions move far past it.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

constexpr double kBand = 0.01;  // 1% relative slack per axis

struct Row {
  std::string window;
  double wire_probes = 0.0;
  double sim_wire_time_us = 0.0;
  double subnets = 0.0;
};

struct Bench {
  std::vector<Row> rows;

  const Row* find(const std::string& window) const {
    for (const Row& row : rows)
      if (row.window == window) return &row;
    return nullptr;
  }
};

std::string slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string("cannot read ") + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Minimal extraction tuned to the flat JSON bench_adaptive_policy emits;
// not a general parser (mirrors the scorecard loader's approach).
double field_after(const std::string& text, std::size_t from, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos)
    throw std::runtime_error(std::string("missing field ") + key);
  return std::stod(text.substr(at + needle.size()));
}

Bench parse(const std::string& text) {
  Bench out;
  const std::size_t rows_at = text.find("\"rows\":[");
  if (rows_at == std::string::npos) throw std::runtime_error("missing rows");
  std::size_t cursor = rows_at;
  while (true) {
    const std::size_t row_at = text.find("{\"window\":\"", cursor);
    if (row_at == std::string::npos) break;
    const std::size_t name_at = row_at + 11;
    const std::size_t name_end = text.find('"', name_at);
    Row row;
    row.window = text.substr(name_at, name_end - name_at);
    row.wire_probes = field_after(text, row_at, "wire_probes");
    row.sim_wire_time_us = field_after(text, row_at, "sim_wire_time_us");
    row.subnets = field_after(text, row_at, "subnets");
    out.rows.push_back(row);
    cursor = name_end;
  }
  return out;
}

// a at-or-below b on one axis, with relative slack.
bool at_most(double a, double b) { return a <= b * (1.0 + kBand); }
// a strictly better than b on one axis, beyond the slack.
bool beats(double a, double b) { return a < b * (1.0 - kBand); }

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: frontier_diff OLD.json NEW.json\n");
    return 2;
  }

  Bench before, after;
  try {
    before = parse(slurp(argv[1]));
    after = parse(slurp(argv[2]));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "frontier_diff: %s\n", error.what());
    return 2;
  }

  int regressions = 0;
  const auto complain = [&](const char* format, auto... args) {
    std::fprintf(stderr, "REGRESSION: ");
    std::fprintf(stderr, format, args...);
    std::fprintf(stderr, "\n");
    ++regressions;
  };

  const Row* adaptive = after.find("auto");
  if (adaptive == nullptr) {
    std::fprintf(stderr, "frontier_diff: no adaptive row in %s\n", argv[2]);
    return 2;
  }

  // Every committed row must still be there and no worse on either axis.
  for (const Row& old_row : before.rows) {
    const Row* row = after.find(old_row.window);
    if (row == nullptr) {
      complain("window %s row missing from %s", old_row.window.c_str(),
               argv[2]);
      continue;
    }
    if (!at_most(row->wire_probes, old_row.wire_probes) ||
        !at_most(row->sim_wire_time_us, old_row.sim_wire_time_us))
      complain(
          "window %s regressed (probes %.0f vs %.0f committed, "
          "wire us %.0f vs %.0f committed)",
          row->window.c_str(), row->wire_probes, old_row.wire_probes,
          row->sim_wire_time_us, old_row.sim_wire_time_us);
  }

  // The adaptive row must stay on the frontier: no fixed row may be at or
  // below it on both axes while clearly better on one.
  for (const Row& row : after.rows) {
    if (row.window == "auto") continue;
    if (row.wire_probes <= adaptive->wire_probes &&
        row.sim_wire_time_us <= adaptive->sim_wire_time_us &&
        (beats(row.wire_probes, adaptive->wire_probes) ||
         beats(row.sim_wire_time_us, adaptive->sim_wire_time_us)))
      complain(
          "adaptive dominated by window %s "
          "(probes %.0f vs %.0f, wire us %.0f vs %.0f)",
          row.window.c_str(), row.wire_probes, adaptive->wire_probes,
          row.sim_wire_time_us, adaptive->sim_wire_time_us);
    if (row.subnets != adaptive->subnets)
      complain("window %s collected %.0f subnets, adaptive %.0f — the "
               "policy changed the output",
               row.window.c_str(), row.subnets, adaptive->subnets);
  }

  if (regressions > 0) {
    std::fprintf(stderr, "frontier_diff: %d regression(s)\n", regressions);
    return 1;
  }
  std::printf("frontier_diff: OK (%zu rows, adaptive undominated, no row "
              "regressed)\n",
              after.rows.size());
  return 0;
}
