// Traceroute: TTL-scoped path collection.
//
// Serves two roles: the *trace collection* mode of tracenet (§3.3, "similar
// to traceroute, tracenet gradually extends a trace path by obtaining an IP
// address via indirect probing at each hop"), and the standalone baseline the
// paper compares against. Flow identifiers are held constant per session in
// the spirit of Paris traceroute (§3.8 names that as the planned approach),
// so per-flow load balancers do not scatter the path.
#pragma once

#include "core/types.h"
#include "probe/adaptive.h"
#include "probe/engine.h"
#include "trace/journal.h"

namespace tn::core {

struct TracerouteConfig {
  net::ProbeProtocol protocol = net::ProbeProtocol::kIcmp;
  std::uint16_t flow_id = 0;
  std::uint8_t epoch = 0;  // routing epoch stamped on probes (SessionConfig)
  int max_ttl = 32;
  // Give up after this many consecutive anonymous hops (firewalled tail or
  // unreachable destination).
  int anonymous_gap_limit = 4;
  // Wave controller (probe/adaptive.h), owned by the session; nullptr = the
  // strictly sequential historical walk. When set, TTLs are probed in waves
  // sized by the controller's current window (paced by its backoff) through
  // ProbeEngine::probe_batch, so a wave pays one overlapped round trip
  // instead of one per TTL. Replies are consumed in TTL order through the
  // unchanged serial stop logic, so the collected path is identical either
  // way — a wave may merely probe a few TTLs past the stopping hop (extra
  // wire probes, never extra hops).
  probe::AdaptiveController* adaptive = nullptr;
  // Journal destination for session-level hop events; nullptr = tracing off.
  // Hop events record *consumed* replies only, so they are identical across
  // window settings (a wave's discarded prefetches never appear).
  trace::Recorder* recorder = nullptr;
};

class Traceroute {
 public:
  Traceroute(probe::ProbeEngine& engine, TracerouteConfig config = {}) noexcept
      : engine_(engine), config_(config) {}

  // Probes hop by hop toward `destination` until the destination answers,
  // the anonymous-gap limit trips, a forwarding loop is detected, or max_ttl.
  TracePath run(net::Ipv4Addr destination);

 private:
  probe::ProbeEngine& engine_;
  TracerouteConfig config_;
};

}  // namespace tn::core
