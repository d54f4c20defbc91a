#include "sim/routing.h"

#include <algorithm>
#include <span>

namespace tn::sim {

namespace {
constexpr std::uint8_t kNoRoute = 0xFF;

int decode(std::uint8_t hops) noexcept {
  return hops == kNoRoute ? RoutingTable::kUnreachable : hops;
}

// Compressed sparse rows: row r is values[offsets[r], offsets[r+1]).
template <class T>
struct Csr {
  std::vector<std::uint32_t> offsets{0};
  std::vector<T> values;

  void end_row() { offsets.push_back(static_cast<std::uint32_t>(values.size())); }
  std::span<const T> operator[](std::size_t row) const {
    return {values.data() + offsets[row], values.data() + offsets[row + 1]};
  }
};
}  // namespace

struct RoutingTable::RouterIndex {
  static constexpr std::uint32_t kHost = ~0U;

  // One relay interface of a LAN; `router` is kHost for a multi-homed host.
  struct Relay {
    InterfaceId iface;
    NodeId node;
    std::uint32_t router;
  };

  std::vector<std::uint32_t> router_of_node;  // by NodeId; kHost for hosts
  std::size_t routers = 0;
  Csr<SubnetId> router_lans;      // router index -> its LANs
  Csr<std::uint32_t> lan_routers;  // SubnetId -> router indices on it
  Csr<Relay> lan_relays;           // SubnetId -> relay interfaces
};

std::shared_ptr<const RoutingTable::RouterIndex> RoutingTable::build_index()
    const {
  auto index = std::make_shared<RouterIndex>();
  index->router_of_node.assign(topology_.node_count(), RouterIndex::kHost);
  for (NodeId id = 0; id < topology_.node_count(); ++id) {
    const Node& node = topology_.node(id);
    if (node.is_host) continue;
    index->router_of_node[id] = static_cast<std::uint32_t>(index->routers++);
    for (const InterfaceId iface : node.interfaces)
      index->router_lans.values.push_back(topology_.interface(iface).subnet);
    index->router_lans.end_row();
  }
  for (SubnetId lan = 0; lan < topology_.subnet_count(); ++lan) {
    for (const InterfaceId iface : topology_.subnet(lan).interfaces) {
      const NodeId node = topology_.interface(iface).node;
      const std::uint32_t router = index->router_of_node[node];
      if (router != RouterIndex::kHost)
        index->lan_routers.values.push_back(router);
      else if (topology_.node(node).interfaces.size() < 2)
        continue;  // single-homed host: never a next hop
      index->lan_relays.values.push_back({iface, node, router});
    }
    index->lan_routers.end_row();
    index->lan_relays.end_row();
  }
  return index;
}

int RoutingTable::distance(NodeId from, SubnetId target) const {
  return distance(from, *routes_for(target));
}

int RoutingTable::distance(NodeId from, const Routes& routes) const {
  const std::uint32_t router = routes.index->router_of_node[from];
  if (router != RouterIndex::kHost) return decode(routes.router_dist[router]);
  // A host: 0 when attached to the target, else what the BFS would have
  // assigned when one of its LANs was first relaxed. LAN relaxations happen
  // in nondecreasing distance order, so the minimum over its LANs is exactly
  // the first-touch value of the full-graph BFS.
  std::uint8_t best = kNoRoute;
  for (const InterfaceId iface : topology_.node(from).interfaces) {
    const SubnetId lan = topology_.interface(iface).subnet;
    if (lan == routes.target) return 0;
    best = std::min(best, routes.lan_dist[lan]);
  }
  return decode(best);
}

template <class Visit>
void RoutingTable::visit_next_hops(NodeId from, const Routes& routes,
                                   Visit&& visit) const {
  const int d = distance(from, routes);
  if (d <= 0) return;  // attached (local delivery) or unreachable
  const RouterIndex& index = *routes.index;
  for (const InterfaceId egress : topology_.node(from).interfaces) {
    // Delivery hop (d == 1): peers at distance 0 qualify, and those include
    // multi-homed hosts attached to the target. Transit hop: hosts never
    // forward, so only router peers at d-1 can carry the path. The relay
    // list keeps the LAN's interface-insertion order either way, keeping
    // ECMP fan-out order identical to the full-graph BFS.
    for (const RouterIndex::Relay& peer :
         index.lan_relays[topology_.interface(egress).subnet]) {
      if (peer.iface == egress) continue;
      const bool closer =
          peer.router != RouterIndex::kHost
              ? routes.router_dist[peer.router] == d - 1
              : d == 1 && topology_.interface_on(peer.node, routes.target);
      if (closer && !visit(NextHop{peer.node, egress, peer.iface})) return;
    }
  }
}

std::vector<RoutingTable::NextHop> RoutingTable::next_hops(
    NodeId from, SubnetId target) const {
  std::vector<NextHop> out;
  visit_next_hops(from, *routes_for(target), [&out](const NextHop& hop) {
    out.push_back(hop);
    return true;
  });
  return out;
}

std::size_t RoutingTable::next_hop_count(NodeId from,
                                         const Routes& routes) const {
  std::size_t n = 0;
  visit_next_hops(from, routes, [&n](const NextHop&) {
    ++n;
    return true;
  });
  return n;
}

RoutingTable::NextHop RoutingTable::next_hop_at(NodeId from,
                                                const Routes& routes,
                                                std::size_t index) const {
  NextHop found;
  visit_next_hops(from, routes, [&](const NextHop& hop) {
    if (index-- > 0) return true;
    found = hop;
    return false;
  });
  return found;
}

InterfaceId RoutingTable::shortest_path_egress(NodeId from,
                                               SubnetId toward_subnet) const {
  // Attached: the interface on the subnet itself is the egress.
  if (const auto local = topology_.interface_on(from, toward_subnet))
    return *local;
  InterfaceId best = kInvalidId;
  visit_next_hops(from, *routes_for(toward_subnet), [&](const NextHop& hop) {
    if (best == kInvalidId ||
        topology_.interface(hop.egress).addr < topology_.interface(best).addr)
      best = hop.egress;
    return true;
  });
  return best;
}

RoutingTable::RoutesHandle RoutingTable::routes_for(SubnetId target) const {
  std::shared_ptr<const RouterIndex> index;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (cached_version_ != topology_.version()) {
      lru_.clear();
      by_subnet_.clear();
      router_index_ = build_index();
      cached_version_ = topology_.version();
    } else if (const auto hit = by_subnet_.find(target);
               hit != by_subnet_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second);  // refresh recency
      return hit->second->second;
    }
    index = router_index_;
  }

  // Miss: compute outside the lock (racing threads may duplicate the work;
  // the first insert wins and the copies agree, BFS being pure).
  RoutesHandle routes = compute_routes(target, std::move(index));

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (const auto hit = by_subnet_.find(target); hit != by_subnet_.end())
    return hit->second->second;
  lru_.emplace_front(target, routes);
  by_subnet_[target] = lru_.begin();
  if (lru_.size() > capacity_) {
    by_subnet_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return routes;
}

RoutingTable::RoutesHandle RoutingTable::compute_routes(
    SubnetId target, std::shared_ptr<const RouterIndex> index) const {
  // Reverse BFS from the target subnet over the router index. The nodes that
  // make forward progress are routers plus the multi-homed hosts attached to
  // the target (distance 0, which may deliver onto the target LAN from their
  // other interfaces). Hosts beyond the target never forward — the
  // full-graph BFS assigned them first-touch distances only for queries,
  // and lan_dist reproduces those lazily (see distance()).
  const RouterIndex& graph = *index;
  auto routes = std::make_shared<Routes>();
  routes->index = std::move(index);
  routes->target = target;
  routes->router_dist.assign(graph.routers, kNoRoute);
  routes->lan_dist.assign(topology_.subnet_count(), kNoRoute);
  std::vector<std::uint8_t>& dist = routes->router_dist;

  // FIFO over router indices; each router is queued at most once.
  std::vector<std::uint32_t> queue;
  queue.reserve(graph.routers);
  const auto relax = [&](SubnetId lan, std::uint8_t via) {
    if (routes->lan_dist[lan] != kNoRoute) return;
    routes->lan_dist[lan] = via;
    for (const std::uint32_t router : graph.lan_routers[lan]) {
      if (dist[router] == kNoRoute) {
        dist[router] = via;
        queue.push_back(router);
      }
    }
  };

  // Distance 0: the target's routers, then its multi-homed hosts relaxing
  // their other LANs (as if popped first; BFS levels do not depend on the
  // order within one level).
  for (const std::uint32_t router : graph.lan_routers[target]) {
    dist[router] = 0;
    queue.push_back(router);
  }
  for (const RouterIndex::Relay& relay : graph.lan_relays[target])
    if (relay.router == RouterIndex::kHost)
      for (const InterfaceId iface : topology_.node(relay.node).interfaces)
        relax(topology_.interface(iface).subnet, 1);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint8_t d = dist[queue[head]];
    // Neighbors of a router at kMaxDistance would sit past the last
    // representable hop count: leave them unreachable.
    if (d >= kMaxDistance) continue;
    for (const SubnetId lan : graph.router_lans[queue[head]])
      relax(lan, static_cast<std::uint8_t>(d + 1));
  }
  return routes;
}

}  // namespace tn::sim
