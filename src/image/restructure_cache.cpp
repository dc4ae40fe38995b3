#include "image/restructure_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "curare/curare.hpp"
#include "sexpr/printer.hpp"

namespace curare::image {

using sexpr::Value;

namespace {

/// 128-bit content address: two FNV-1a-64 streams with different
/// offset bases. The composed key material can be kilobytes of printed
/// program text; storing the digest keeps per-entry overhead flat.
void fold(RestructureCache::KeySeed& s, const std::string& text) {
  for (unsigned char c : text) {
    s.h1 = (s.h1 ^ c) * 1099511628211ull;
    s.h2 = (s.h2 ^ c) * 1099511628211ull;
  }
}

RestructureCache::KeySeed fresh_seed() {
  return {14695981039346656037ull, 0x9AE16A3B2F90404Full};
}

std::string hex_key(const RestructureCache::KeySeed& s) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(s.h1),
                static_cast<unsigned long long>(s.h2));
  return std::string(buf, 32);
}

}  // namespace

RestructureCache::RestructureCache(gc::GcHeap& heap, std::size_t capacity)
    : heap_(heap),
      per_shard_cap_(std::max<std::size_t>(
          1, (std::max<std::size_t>(1, capacity) + kShards - 1) / kShards)) {
  heap_.add_root_source(this);
}

RestructureCache::~RestructureCache() { heap_.remove_root_source(this); }

void RestructureCache::attach_metrics(obs::Metrics& m) {
  hit_c_.store(&m.counter("restructure.cache.hit"),
               std::memory_order_release);
  miss_c_.store(&m.counter("restructure.cache.miss"),
                std::memory_order_release);
  evict_c_.store(&m.counter("restructure.cache.evict"),
                 std::memory_order_release);
}

RestructureCache::Shard& RestructureCache::shard_for(
    const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

bool RestructureCache::lookup(const std::string& key,
                              RestructureEntry* out) {
  Shard& s = shard_for(key);
  bool hit = false;
  {
    std::lock_guard<std::mutex> g(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      if (out != nullptr) *out = it->second->second;
      hit = true;
    }
  }
  // Count outside the shard lock: counters are atomic and gc_roots
  // takes every shard lock while the world is stopped.
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = hit_c_.load(std::memory_order_acquire)) c->add();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = miss_c_.load(std::memory_order_acquire)) c->add();
  }
  return hit;
}

void RestructureCache::insert(const std::string& key,
                              RestructureEntry entry) {
  Shard& s = shard_for(key);
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> g(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      it->second->second = std::move(entry);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
    } else {
      s.lru.emplace_front(key, std::move(entry));
      s.index[key] = s.lru.begin();
      while (s.lru.size() > per_shard_cap_) {
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (evicted != 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (auto* c = evict_c_.load(std::memory_order_acquire))
      c->add(evicted);
  }
}

std::size_t RestructureCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    n += s.lru.size();
  }
  return n;
}

double RestructureCache::hit_ratio() const {
  const std::uint64_t h = hits();
  const std::uint64_t total = h + misses();
  return total == 0 ? 0.0 : static_cast<double>(h) /
                                static_cast<double>(total);
}

void RestructureCache::gc_roots(std::vector<Value>& out) {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    for (const auto& [key, entry] : s.lru)
      out.insert(out.end(), entry.forms.begin(), entry.forms.end());
  }
}

RestructureCache::KeySeed RestructureCache::seed_state(Curare& driver) {
  KeySeed s = fresh_seed();
  fold(s, "curare-restructure-v" +
              std::to_string(kRestructurerVersion) + "\n");
  // The driver's definitions come in a canonical order (defstructs and
  // defuns by name, each declaration once): load order and repeats
  // never change the answer, so they must not change the key.
  for (Value f : driver.definitions()) fold(s, sexpr::write_str(f) + "\n");
  return s;
}

std::string RestructureCache::make_key(const KeySeed& seed,
                                       const std::string& target,
                                       bool named) {
  KeySeed s = seed;
  fold(s, (named ? "mode:named\ntarget:" : "mode:sweep\ntarget:") +
              target + "\n");
  return hex_key(s);
}

std::string RestructureCache::make_key(Curare& driver,
                                       const std::string& target,
                                       bool named) {
  return make_key(seed_state(driver), target, named);
}

}  // namespace curare::image
