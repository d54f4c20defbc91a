#include "sim/routing.h"

#include <deque>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/network.h"
#include "testutil.h"
#include "topo/isp.h"
#include "topo/reference.h"

namespace tn::sim {
namespace {

using test::ip;
using test::pfx;

TEST(Routing, DistanceAlongChain) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  // Distances from vantage to each subnet (router hops to reach a node that
  // can deliver onto the subnet).
  EXPECT_EQ(routes.distance(f.vantage, f.lan_v), 0);
  EXPECT_EQ(routes.distance(f.vantage, f.s), 3);        // via G, R1, R2
  EXPECT_EQ(routes.distance(f.vantage, f.close_lan), 3);
  EXPECT_EQ(routes.distance(f.vantage, f.far_lan), 4);  // via R2 then R4
  EXPECT_EQ(routes.distance(f.r2, f.s), 0);
  EXPECT_EQ(routes.distance(f.r3, f.far_lan), 1);       // R4 delivers onto it
}

TEST(Routing, UnreachableIsland) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId sa = t.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId sb = t.add_subnet(pfx("10.0.1.0/31"));
  t.attach(a, sa, ip("10.0.0.0"));
  t.attach(b, sb, ip("10.0.1.0"));
  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, sb), RoutingTable::kUnreachable);
  EXPECT_TRUE(routes.next_hops(a, sb).empty());
}

TEST(Routing, NextHopsPointStrictlyCloser) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  const auto hops = routes.next_hops(f.vantage, f.s);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].node, f.gateway);
  const auto hops2 = routes.next_hops(f.gateway, f.s);
  ASSERT_EQ(hops2.size(), 1u);
  EXPECT_EQ(hops2[0].node, f.r1);
}

TEST(Routing, EqualCostPathsYieldMultipleNextHops) {
  // Diamond: src -- a -- dst and src -- b -- dst, both length 2.
  Topology t;
  const NodeId src = t.add_router("src");
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const NodeId dst = t.add_router("dst");
  const SubnetId sa = t.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId sb = t.add_subnet(pfx("10.0.0.2/31"));
  const SubnetId da = t.add_subnet(pfx("10.0.0.4/31"));
  const SubnetId db = t.add_subnet(pfx("10.0.0.6/31"));
  const SubnetId target = t.add_subnet(pfx("10.0.1.0/30"));
  t.attach(src, sa, ip("10.0.0.0"));
  t.attach(a, sa, ip("10.0.0.1"));
  t.attach(src, sb, ip("10.0.0.2"));
  t.attach(b, sb, ip("10.0.0.3"));
  t.attach(a, da, ip("10.0.0.4"));
  t.attach(dst, da, ip("10.0.0.5"));
  t.attach(b, db, ip("10.0.0.6"));
  t.attach(dst, db, ip("10.0.0.7"));
  t.attach(dst, target, ip("10.0.1.1"));

  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(src, target), 2);
  EXPECT_EQ(routes.next_hops(src, target).size(), 2u);
}

TEST(Routing, HostsDoNotForwardTransit) {
  // a -- host -- b: the only "path" from a to b runs through a host, so b's
  // subnet must be unreachable from a.
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId h = t.add_host("h");
  const NodeId b = t.add_router("b");
  const SubnetId s1 = t.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId s2 = t.add_subnet(pfx("10.0.0.2/31"));
  const SubnetId leaf = t.add_subnet(pfx("10.0.1.0/30"));
  t.attach(a, s1, ip("10.0.0.0"));
  t.attach(h, s1, ip("10.0.0.1"));
  t.attach(h, s2, ip("10.0.0.2"));
  t.attach(b, s2, ip("10.0.0.3"));
  t.attach(b, leaf, ip("10.0.1.1"));

  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, leaf), RoutingTable::kUnreachable);
  // But the host itself can originate toward b.
  EXPECT_EQ(routes.distance(h, leaf), 1);
}

TEST(Routing, ShortestPathEgressPointsBackToSource) {
  test::Fig3Topology f;
  RoutingTable routes(f.topo);
  // From R2, the interface toward the vantage LAN is its r1-r2 address.
  const InterfaceId egress = routes.shortest_path_egress(f.r2, f.lan_v);
  ASSERT_NE(egress, kInvalidId);
  EXPECT_EQ(f.topo.interface(egress).addr, ip("10.0.2.1"));
  // A node attached to the subnet reports its own interface on it.
  const InterfaceId local = routes.shortest_path_egress(f.gateway, f.lan_v);
  EXPECT_EQ(f.topo.interface(local).addr, ip("10.0.0.2"));
}

TEST(Routing, CacheInvalidatesOnTopologyChange) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/31"));
  const SubnetId leaf = t.add_subnet(pfx("10.0.1.0/30"));
  t.attach(a, s, ip("10.0.0.0"));
  t.attach(b, leaf, ip("10.0.1.1"));

  RoutingTable routes(t);
  EXPECT_EQ(routes.distance(a, leaf), RoutingTable::kUnreachable);
  t.attach(b, s, ip("10.0.0.1"));  // connect the island
  EXPECT_EQ(routes.distance(a, leaf), 1);
}

TEST(Routing, HopCountsSaturateAtMaxDistance) {
  // A chain r0 - r1 - ... - r299 with the target hanging off r299: r_i sits
  // 299 - i hops away. Distances are stored in a byte, so only hop counts up
  // to kMaxDistance (254) are representable; anything farther is
  // unreachable, as no TTL could reach it anyway.
  constexpr int kRouters = 300;
  Topology t;
  std::vector<NodeId> chain;
  for (int i = 0; i < kRouters; ++i)
    chain.push_back(t.add_router("r" + std::to_string(i)));
  for (int i = 0; i + 1 < kRouters; ++i) {
    const net::Ipv4Addr base(0x0A000000U + 2U * static_cast<std::uint32_t>(i));
    const SubnetId link = t.add_subnet(net::Prefix::covering(base, 31));
    t.attach(chain[i], link, base);
    t.attach(chain[i + 1], link, net::Ipv4Addr(base.value() + 1));
  }
  const SubnetId target = t.add_subnet(pfx("10.1.0.0/30"));
  t.attach(chain.back(), target, ip("10.1.0.1"));
  // Hosts resolve through the LAN they sit on: one hop past their router.
  const NodeId far_host = t.add_host("far");   // beside r45 (254 hops)
  const NodeId near_host = t.add_host("near");  // beside r46 (253 hops)
  const SubnetId far_lan = t.add_subnet(pfx("10.2.0.0/24"));
  const SubnetId near_lan = t.add_subnet(pfx("10.3.0.0/24"));
  t.attach(chain[45], far_lan, ip("10.2.0.1"));
  t.attach(far_host, far_lan, ip("10.2.0.2"));
  t.attach(chain[46], near_lan, ip("10.3.0.1"));
  t.attach(near_host, near_lan, ip("10.3.0.2"));

  RoutingTable routes(t);
  for (int i = 0; i < kRouters; ++i) {
    const int hops = kRouters - 1 - i;
    const int d = routes.distance(chain[i], target);
    if (hops <= RoutingTable::kMaxDistance) {
      ASSERT_EQ(d, hops) << "r" << i;
    } else {
      ASSERT_EQ(d, RoutingTable::kUnreachable) << "r" << i;
      ASSERT_TRUE(routes.next_hops(chain[i], target).empty()) << "r" << i;
      continue;
    }
    // Every reachable router forwards strictly closer, down the chain.
    const auto hops_out = routes.next_hops(chain[i], target);
    if (d == 0) {
      EXPECT_TRUE(hops_out.empty());
      continue;
    }
    ASSERT_EQ(hops_out.size(), 1u) << "r" << i;
    EXPECT_EQ(hops_out[0].node, chain[i + 1]);
    EXPECT_EQ(routes.distance(hops_out[0].node, target), d - 1);
  }
  EXPECT_EQ(routes.distance(far_host, target), RoutingTable::kUnreachable);
  EXPECT_EQ(routes.distance(near_host, target), RoutingTable::kMaxDistance);
}

TEST(Routing, SmallCacheConcurrentWalksMatchSerial) {
  // A route cache of one or two tables evicts on nearly every lookup while
  // four workers walk probes toward different subnets. Walks hold shared
  // route handles, so eviction must never change a reply.
  topo::SimulatedInternet inet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  // Make every reply a pure function of the probe: no flakiness draws or
  // round-robin cursors keyed on the injection order.
  for (InterfaceId i = 0; i < inet.topo.interface_count(); ++i)
    inet.topo.interface_mut(i).flakiness = 0.0;
  for (NodeId n = 0; n < inet.topo.node_count(); ++n)
    inet.topo.set_per_packet_load_balancing(n, false);

  struct Send {
    NodeId origin;
    net::Probe probe;
  };
  std::vector<Send> sends;
  const std::vector<net::Ipv4Addr> targets = inet.all_targets();
  for (std::size_t i = 0; i < targets.size(); i += 7) {
    for (const std::uint8_t ttl : {1, 2, 3, 4, 5, 6, 8, 10, 12, 64}) {
      net::Probe p;
      p.target = targets[i];
      p.ttl = ttl;
      p.flow_id = static_cast<std::uint16_t>(i % 3);
      sends.push_back({inet.vantages[i % inet.vantages.size()], p});
    }
  }

  Network serial(inet.topo);
  std::vector<net::ProbeReply> want;
  for (const Send& s : sends) want.push_back(serial.send_probe(s.origin, s.probe));

  for (const std::size_t capacity : {1, 2}) {
    Network net(inet.topo, {}, capacity);
    std::vector<net::ProbeReply> got(sends.size());
    constexpr std::size_t kThreads = 4;
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t i = w; i < sends.size(); i += kThreads)
          got[i] = net.send_probe(sends[i].origin, sends[i].probe);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (std::size_t i = 0; i < sends.size(); ++i) {
      ASSERT_EQ(got[i].type, want[i].type) << "capacity " << capacity << " probe " << i;
      ASSERT_EQ(got[i].responder, want[i].responder)
          << "capacity " << capacity << " probe " << i;
    }
  }
}

// Reference implementation for the equivalence pins below: the original
// full-graph BFS (every LAN relaxes every member, hosts guard at the pop)
// that the router-slice BFS in sim/routing.cpp replaced for speed. The
// production table must reproduce its distances and next-hop sets exactly.
std::vector<int> full_graph_distances(const Topology& t, SubnetId target) {
  std::vector<int> dist(t.node_count(), RoutingTable::kUnreachable);
  std::deque<NodeId> queue;
  for (const InterfaceId iface : t.subnet(target).interfaces) {
    const NodeId node = t.interface(iface).node;
    if (dist[node] != 0) {
      dist[node] = 0;
      queue.push_back(node);
    }
  }
  std::vector<bool> lan_done(t.subnet_count(), false);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (t.node(u).is_host && dist[u] != 0) continue;
    for (const InterfaceId egress : t.node(u).interfaces) {
      const SubnetId lan_id = t.interface(egress).subnet;
      if (lan_done[lan_id]) continue;
      lan_done[lan_id] = true;
      for (const InterfaceId peer : t.subnet(lan_id).interfaces) {
        const NodeId v = t.interface(peer).node;
        if (dist[v] == RoutingTable::kUnreachable) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

std::vector<RoutingTable::NextHop> full_graph_next_hops(
    const Topology& t, const std::vector<int>& dist, NodeId from) {
  std::vector<RoutingTable::NextHop> out;
  const int d = dist[from];
  if (d <= 0) return out;
  for (const InterfaceId egress : t.node(from).interfaces) {
    const Subnet& lan = t.subnet(t.interface(egress).subnet);
    for (const InterfaceId peer : lan.interfaces) {
      if (peer == egress) continue;
      const NodeId v = t.interface(peer).node;
      if (dist[v] != d - 1) continue;
      if (t.node(v).is_host && dist[v] != 0) continue;
      out.push_back(RoutingTable::NextHop{v, egress, peer});
    }
  }
  return out;
}

void expect_routes_match(const Topology& t, SubnetId stride) {
  RoutingTable routes(t);
  for (SubnetId s = 0; s < t.subnet_count(); s += stride) {
    const std::vector<int> ref = full_graph_distances(t, s);
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(routes.distance(n, s), ref[n])
          << "node " << n << " subnet " << s;
      const auto got = routes.next_hops(n, s);
      const auto want = full_graph_next_hops(t, ref, n);
      ASSERT_EQ(got.size(), want.size()) << "node " << n << " subnet " << s;
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Element-wise including order: ECMP fan-out order feeds the
        // per-flow hash and round-robin cursors, so a permutation would
        // silently change simulated paths.
        ASSERT_EQ(got[i].node, want[i].node) << "node " << n << " subnet " << s;
        ASSERT_EQ(got[i].egress, want[i].egress);
        ASSERT_EQ(got[i].ingress, want[i].ingress);
      }
    }
  }
}

TEST(Routing, RoutesMatchFullGraphBfsOnReferenceTopologies) {
  expect_routes_match(topo::internet2_like(42).topo, 1);
  expect_routes_match(topo::geant_like(43).topo, 1);
}

TEST(Routing, RoutesMatchFullGraphBfsOnSimulatedInternetSample) {
  // ISP-scale spot check: every 97th subnet of the 12k-node simulated
  // internet, all nodes — the multi-access /20 LANs here are exactly what
  // the router-slice BFS exists to avoid scanning.
  const topo::SimulatedInternet internet =
      topo::build_internet(topo::default_isp_profiles(), 7);
  expect_routes_match(internet.topo, 97);
}

}  // namespace
}  // namespace tn::sim
