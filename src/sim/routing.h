// Hop-count shortest-path routing over the router graph.
//
// Destinations resolve to subnets; a per-target-subnet reverse BFS yields
// every node's distance to the subnet. Hosts never forward transit traffic,
// so the BFS runs on the *router* slice of the bipartite node <-> LAN
// structure, over a compact index built once per topology version:
//
//   * routers are numbered densely (the router index), with CSR adjacency
//     router -> LANs and LAN -> routers;
//   * every LAN lists its relay interfaces: routers plus multi-homed hosts,
//     in interface-insertion order. Only these can be a next hop: a
//     single-homed host never forwards, and on the target LAN it is reached
//     by local delivery, not as a next hop.
//
// One target's Routes hold `uint8_t` hop counts by router index plus, by
// SubnetId, the distance at which each LAN was first relaxed (`lan_dist`).
// A host is at distance 0 exactly when it has an interface on the target;
// every other host resolves through `lan_dist` (the minimum over its LANs),
// instead of the BFS walking every member of every /20-scale multi-access
// LAN. Router distances, host distances and next-hop sets are bit-identical
// to the full-graph BFS; see the Routing.RoutesMatchFullGraphBfs* tests.
//
// Hop counts saturate: 0xFF marks "unreachable", and a node 255 or more
// router hops from the target is unreachable too, since no TTL reaches it.
// distance() therefore never exceeds kMaxDistance (254).
//
// Route tables are memoized in an LRU — campaigns exhibit strong
// target-subnet locality — and flushed when the topology version changes, so
// tests can fail links mid-experiment and observe re-converged routes (§3.7
// routing updates). routes_for hands out shared handles: eviction or a flush
// never invalidates a table a caller still holds, so any capacity >= 1 is
// safe under concurrency and the capacity only trades CPU (recomputed BFS)
// for memory.
//
// Next-hop sets are computed on demand per (node, target) query in
// deterministic interface-insertion order, which per-flow ECMP hashing and
// per-packet round-robin index into.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/topology.h"

namespace tn::sim {

class RoutingTable {
  struct RouterIndex;

 public:
  explicit RoutingTable(const Topology& topology, std::size_t cache_capacity = 128)
      : topology_(topology), capacity_(cache_capacity) {}

  struct NextHop {
    NodeId node = kInvalidId;
    InterfaceId egress = kInvalidId;   // on the forwarding node
    InterfaceId ingress = kInvalidId;  // on the next-hop node
  };

  static constexpr int kUnreachable = -1;
  // The largest representable distance; anything farther is kUnreachable.
  static constexpr int kMaxDistance = 254;

  // Distances to one target subnet, immutable once built. A table answers
  // queries about the topology version it was computed on.
  struct Routes {
    std::shared_ptr<const RouterIndex> index;  // the version's router index
    SubnetId target = kInvalidId;
    std::vector<std::uint8_t> router_dist;  // by router index
    std::vector<std::uint8_t> lan_dist;     // by SubnetId
  };
  using RoutesHandle = std::shared_ptr<const Routes>;

  // The route table toward `target`, computed on a cache miss. Thread-safe:
  // the cache is guarded by an internal mutex and the BFS runs outside it
  // (pure topology read). Callers must not mutate the topology while queries
  // are in flight.
  RoutesHandle routes_for(SubnetId target) const;

  // Router-hop distance from `from` to `target` subnet; 0 when attached.
  int distance(NodeId from, SubnetId target) const;

  // Equal-cost next hops of `from` toward `target`, in deterministic order.
  // Empty when `from` is attached to the target (local delivery) or the
  // target is unreachable.
  std::vector<NextHop> next_hops(NodeId from, SubnetId target) const;

  // The same set without allocating: its size, and its index-th member
  // (index < next_hop_count).
  std::size_t next_hop_count(NodeId from, const Routes& routes) const;
  NextHop next_hop_at(NodeId from, const Routes& routes,
                      std::size_t index) const;

  // The egress interface of `from` on a shortest path toward `toward_subnet`
  // — the address a shortest-path-policy router reports (§3.1(iii)).  When
  // several equal-cost egresses exist the lowest-address one is returned
  // (real routers pick one deterministically as well). kInvalidId when
  // unreachable.
  InterfaceId shortest_path_egress(NodeId from, SubnetId toward_subnet) const;

 private:
  int distance(NodeId from, const Routes& routes) const;

  std::shared_ptr<const RouterIndex> build_index() const;
  RoutesHandle compute_routes(SubnetId target,
                              std::shared_ptr<const RouterIndex> index) const;

  // Calls visit(hop) for each of `from`'s next hops in order until it
  // returns false.
  template <class Visit>
  void visit_next_hops(NodeId from, const Routes& routes, Visit&& visit) const;

  const Topology& topology_;
  std::size_t capacity_;

  // LRU cache: list holds (subnet, routes) in recency order.
  mutable std::mutex cache_mutex_;
  mutable std::list<std::pair<SubnetId, RoutesHandle>> lru_;
  mutable std::unordered_map<SubnetId, decltype(lru_)::iterator> by_subnet_;
  mutable std::shared_ptr<const RouterIndex> router_index_;
  mutable std::uint64_t cached_version_ = ~0ULL;
};

}  // namespace tn::sim
