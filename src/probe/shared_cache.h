// SharedCachingProbeEngine: thread-safe cross-session reply memoization.
//
// CachingProbeEngine deduplicates probes *within* one session (the paper's
// merged-heuristic optimization, §3.5). When a campaign fans sessions out
// over a worker pool, most redundancy is *across* sessions instead: every
// trace toward the same ISP re-walks the same first hops and re-tests the
// same infrastructure subnets (the observation behind Doubletree's shared
// stop set). This decorator is the campaign-wide analogue: one
// (target, flow, ttl, protocol, epoch) -> reply table shared by all workers,
// sharded by key hash so concurrent sessions rarely contend on one mutex.
//
// Replies are assumed stable for the lifetime of the campaign — the same
// trade Doubletree makes; clear() drops everything between campaigns.
#pragma once

#include <array>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "probe/engine.h"

namespace tn::probe {

class SharedCachingProbeEngine final : public ProbeEngine {
 public:
  explicit SharedCachingProbeEngine(ProbeEngine& inner) noexcept
      : inner_(inner) {}

  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  // Misses whose reply another worker published first: two workers missed
  // the same key at once and both sent the probe (see do_probe).
  std::uint64_t raced_misses() const noexcept {
    return raced_misses_.load(std::memory_order_relaxed);
  }

  // Whether silence (kNone) is published to the shared table. Under fault
  // injection one worker's lost probe must not poison the address for every
  // other session of the campaign, so CampaignRuntime disables this whenever
  // the network has faults installed. Safe to flip at any time (atomic); in
  // practice it is set before workers start.
  void set_cache_unresponsive(bool cache) noexcept {
    cache_unresponsive_.store(cache, std::memory_order_relaxed);
  }
  bool cache_unresponsive() const noexcept {
    return cache_unresponsive_.load(std::memory_order_relaxed);
  }

  // Forget everything, counters included. Only meaningful while no worker is
  // probing (between campaigns).
  void clear() {
    for (Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.replies.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    raced_misses_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Key {
    std::uint32_t target;
    std::uint16_t flow_id;
    std::uint8_t ttl;
    std::uint8_t protocol;
    std::uint8_t epoch;  // routing churn: epochs are distinct routing planes
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          ((static_cast<std::uint64_t>(k.target) << 32) |
           (static_cast<std::uint64_t>(k.flow_id) << 16) |
           (static_cast<std::uint64_t>(k.ttl) << 8) | k.protocol) ^
          (static_cast<std::uint64_t>(k.epoch) * 0x9E3779B97F4A7C15ULL));
    }
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, net::ProbeReply, KeyHash> replies;
  };

  static Key key_of(const net::Probe& request) noexcept {
    return Key{request.target.value(), request.flow_id, request.ttl,
               static_cast<std::uint8_t>(request.protocol), request.epoch};
  }

  static constexpr std::size_t kShards = 16;

  net::ProbeReply do_probe(const net::Probe& request) override {
    const Key key = key_of(request);
    Shard& shard = shards_[KeyHash{}(key) % kShards];
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.replies.find(key);
      if (it != shard.replies.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    // Probe outside the shard lock: the wire blocks (pacing, simulator
    // mutex) and holding a shard hostage meanwhile would serialize every
    // worker hashing into it. Two workers racing on one key probe twice and
    // agree on whichever reply lands last — identical on stable networks.
    // The second publish counts the race (raced_misses).
    misses_.fetch_add(1, std::memory_order_relaxed);
    const net::ProbeReply reply = inner_.probe(request);
    if (cache_unresponsive_.load(std::memory_order_relaxed) ||
        !reply.is_none())
      publish(shard, key, reply);
    return reply;
  }

  void publish(Shard& shard, const Key& key, const net::ProbeReply& reply) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.replies.insert_or_assign(key, reply).second)
      raced_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  // Batch partition: hits resolve from the shards (one short lock per
  // request), misses forward as one inner wave — probed outside every shard
  // lock for the same reason do_probe is — then publish. Duplicate keys
  // within a wave are probed once and scored as hits, like the serial walk.
  std::vector<net::ProbeReply> do_probe_batch(
      std::span<const net::Probe> requests) override {
    std::vector<net::ProbeReply> replies(requests.size());
    std::vector<net::Probe> misses;
    std::vector<std::size_t> miss_request;
    std::unordered_map<Key, std::size_t, KeyHash> pending;
    std::vector<std::pair<std::size_t, std::size_t>> duplicates;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Key key = key_of(requests[i]);
      if (const auto it = pending.find(key); it != pending.end()) {
        ++hits;
        duplicates.emplace_back(i, it->second);
        continue;
      }
      Shard& shard = shards_[KeyHash{}(key) % kShards];
      bool hit = false;
      {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        if (const auto it = shard.replies.find(key);
            it != shard.replies.end()) {
          replies[i] = it->second;
          hit = true;
        }
      }
      if (hit) {
        ++hits;
        continue;
      }
      pending.emplace(key, misses.size());
      miss_request.push_back(i);
      misses.push_back(requests[i]);
    }
    hits_.fetch_add(hits, std::memory_order_relaxed);
    misses_.fetch_add(misses.size(), std::memory_order_relaxed);
    if (!misses.empty()) {
      const std::vector<net::ProbeReply> fresh = inner_.probe_batch(misses);
      const bool keep_none =
          cache_unresponsive_.load(std::memory_order_relaxed);
      for (std::size_t j = 0; j < misses.size(); ++j) {
        replies[miss_request[j]] = fresh[j];
        if (!keep_none && fresh[j].is_none()) continue;
        const Key key = key_of(misses[j]);
        publish(shards_[KeyHash{}(key) % kShards], key, fresh[j]);
      }
      for (const auto& [request_index, miss_index] : duplicates)
        replies[request_index] = fresh[miss_index];
    }
    return replies;
  }

  ProbeEngine& inner_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> raced_misses_{0};
  std::atomic<bool> cache_unresponsive_{true};
};

}  // namespace tn::probe
