#include "sim/topology.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "testutil.h"
#include "topo/serialize.h"

namespace tn::sim {
namespace {

using test::ip;
using test::pfx;

TEST(Topology, AddAndLookupEntities) {
  Topology t;
  const NodeId r = t.add_router("r");
  const NodeId h = t.add_host("h");
  EXPECT_FALSE(t.node(r).is_host);
  EXPECT_TRUE(t.node(h).is_host);

  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(r, s, ip("10.0.0.1"));
  EXPECT_EQ(t.interface(i).addr, ip("10.0.0.1"));
  EXPECT_EQ(t.interface(i).node, r);
  EXPECT_EQ(t.interface(i).subnet, s);
  EXPECT_EQ(t.find_interface(ip("10.0.0.1")), i);
  EXPECT_FALSE(t.find_interface(ip("10.0.0.2")));
}

TEST(Topology, RejectsOverlappingSubnets) {
  Topology t;
  t.add_subnet(pfx("10.0.0.0/24"));
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.128/25")), std::invalid_argument);
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.0/16")), std::invalid_argument);
  EXPECT_THROW(t.add_subnet(pfx("10.0.0.0/24")), std::invalid_argument);
  EXPECT_NO_THROW(t.add_subnet(pfx("10.0.1.0/24")));
}

TEST(Topology, AttachValidatesAddress) {
  Topology t;
  const NodeId r = t.add_router("r");
  const NodeId r2 = t.add_router("r2");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/29"));
  // Outside the prefix.
  EXPECT_THROW(t.attach(r, s, ip("10.0.1.1")), std::invalid_argument);
  // Network / broadcast addresses of a classic prefix.
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.0")), std::invalid_argument);
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.7")), std::invalid_argument);
  // Duplicate address.
  t.attach(r, s, ip("10.0.0.1"));
  EXPECT_THROW(t.attach(r2, s, ip("10.0.0.1")), std::invalid_argument);
  // Same node twice on one subnet.
  EXPECT_THROW(t.attach(r, s, ip("10.0.0.2")), std::invalid_argument);
}

TEST(Topology, Slash31AllowsBothAddresses) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/31"));
  EXPECT_NO_THROW(t.attach(a, s, ip("10.0.0.0")));
  EXPECT_NO_THROW(t.attach(b, s, ip("10.0.0.1")));
}

TEST(Topology, FindSubnetContainingUsesLongestMatch) {
  Topology t;
  const SubnetId s30 = t.add_subnet(pfx("10.0.0.0/30"));
  const SubnetId s24 = t.add_subnet(pfx("10.1.0.0/24"));
  EXPECT_EQ(t.find_subnet_containing(ip("10.0.0.2")), s30);
  EXPECT_EQ(t.find_subnet_containing(ip("10.1.0.200")), s24);
  EXPECT_FALSE(t.find_subnet_containing(ip("10.2.0.1")));
}

TEST(Topology, FindSubnetContainingMatchesLinearScanOnMixedLengths) {
  Topology t;
  const NodeId r = t.add_router("r");
  for (const char* prefix : {"10.0.0.0/8", "172.16.0.0/20", "192.168.1.0/24",
                             "192.168.2.0/30", "192.168.2.4/31",
                             "192.168.2.8/32"}) {
    const net::Prefix p = pfx(prefix);
    const std::uint32_t host = p.length() >= 31 ? 0 : 1;  // skip network addr
    t.attach(r, t.add_subnet(p), net::Ipv4Addr(p.network().value() + host));
  }
  const std::vector<net::Ipv4Addr> probes = {
      ip("10.200.3.4"),  ip("172.16.15.255"), ip("172.16.16.0"),
      ip("192.168.1.77"), ip("192.168.2.3"),  ip("192.168.2.5"),
      ip("192.168.2.6"),  ip("192.168.2.8"),  ip("192.168.2.9"),
      ip("11.0.0.1"),     ip("0.0.0.0"),      ip("255.255.255.255")};
  // The reference: the one subnet whose prefix holds the address, if any.
  const auto linear_scan = [](const Topology& topo, net::Ipv4Addr addr) {
    std::optional<net::Prefix> found;
    for (SubnetId s = 0; s < topo.subnet_count(); ++s)
      if (topo.subnet(s).prefix.contains(addr)) found = topo.subnet(s).prefix;
    return found;
  };
  const auto lookup = [](const Topology& topo, net::Ipv4Addr addr) {
    std::optional<net::Prefix> found;
    if (const auto s = topo.find_subnet_containing(addr))
      found = topo.subnet(*s).prefix;
    return found;
  };
  std::stringstream buffer;
  topo::write_topology(buffer, t);
  const topo::LoadedTopology loaded = topo::read_topology(buffer);
  for (const net::Ipv4Addr addr : probes) {
    EXPECT_EQ(lookup(t, addr), linear_scan(t, addr)) << addr;
    EXPECT_EQ(lookup(loaded.topo, addr), linear_scan(t, addr)) << addr;
  }
  EXPECT_FALSE(t.find_subnet_containing(ip("11.0.0.1")));
  EXPECT_EQ(lookup(t, ip("192.168.2.8")), pfx("192.168.2.8/32"));
  EXPECT_EQ(lookup(t, ip("172.16.15.255")), pfx("172.16.0.0/20"));
}

TEST(Topology, ResponseConfigValidation) {
  Topology t;
  const NodeId r = t.add_router("r");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(r, s, ip("10.0.0.1"));

  ResponseConfig bad;
  bad.indirect = ResponsePolicy::kProbed;  // §3.1(iii): impossible
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, bad),
               std::invalid_argument);

  ResponseConfig needs_default;
  needs_default.indirect = ResponsePolicy::kDefault;
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, needs_default),
               std::invalid_argument);
  needs_default.default_interface = i;
  EXPECT_NO_THROW(
      t.set_response_config(r, net::ProbeProtocol::kIcmp, needs_default));
}

TEST(Topology, DefaultInterfaceMustBelongToNode) {
  Topology t;
  const NodeId r = t.add_router("r");
  const NodeId other = t.add_router("other");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/30"));
  const InterfaceId i = t.attach(other, s, ip("10.0.0.1"));
  ResponseConfig config;
  config.direct = ResponsePolicy::kDefault;
  config.default_interface = i;
  EXPECT_THROW(t.set_response_config(r, net::ProbeProtocol::kIcmp, config),
               std::invalid_argument);
}

TEST(Topology, PerProtocolConfigsAreIndependent) {
  Topology t;
  const NodeId r = t.add_router("r");
  ResponseConfig nil;
  nil.direct = ResponsePolicy::kNil;
  nil.indirect = ResponsePolicy::kNil;
  t.set_response_config(r, net::ProbeProtocol::kUdp, nil);
  EXPECT_EQ(t.node(r).config_for(net::ProbeProtocol::kUdp).direct,
            ResponsePolicy::kNil);
  EXPECT_EQ(t.node(r).config_for(net::ProbeProtocol::kIcmp).direct,
            ResponsePolicy::kProbed);
}

TEST(Topology, AdjacencyListsAllLanNeighbors) {
  test::Fig3Topology f;
  // R2 is on three subnets: r1-r2 p2p, S (3 peers), close LAN (1 peer).
  const auto links = f.topo.links_from(f.r2);
  EXPECT_EQ(links.size(), 1u + 3u + 1u);
  int on_s = 0;
  for (const auto& link : links) on_s += link.via == f.s;
  EXPECT_EQ(on_s, 3);
}

TEST(Topology, AdjacencyTracksMutation) {
  Topology t;
  const NodeId a = t.add_router("a");
  const NodeId b = t.add_router("b");
  const SubnetId s = t.add_subnet(pfx("10.0.0.0/31"));
  t.attach(a, s, ip("10.0.0.0"));
  EXPECT_TRUE(t.links_from(a).empty());
  t.attach(b, s, ip("10.0.0.1"));
  ASSERT_EQ(t.links_from(a).size(), 1u);
  EXPECT_EQ(t.links_from(a)[0].neighbor, b);
}

TEST(Topology, InterfaceOnFindsAttachment) {
  test::Fig3Topology f;
  const auto iface = f.topo.interface_on(f.r2, f.s);
  ASSERT_TRUE(iface);
  EXPECT_EQ(f.topo.interface(*iface).addr, f.contra);
  EXPECT_FALSE(f.topo.interface_on(f.r3, f.close_lan));
}

}  // namespace
}  // namespace tn::sim
