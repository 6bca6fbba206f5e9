// Sharded LRU result cache for the query service.
//
// Keys are canonical query signatures "(op, array id, parameters)" --
// the canonical dump of the request body minus envelope fields -- and
// values are canonical result payloads, so a cache hit reproduces a
// computed response byte for byte (the warm-vs-cold bit-identical
// guarantee of docs/serving.md).
//
// Hashed once: a key's hash is cache_checksum(key), computed once per
// request by whoever built its signature (the codec, or the DOM path)
// and passed into every lookup and insert.  Each entry stores its hash,
// and a shard's index is keyed by (stored hash, view of the entry's own
// key bytes), so find, insert, eviction and invalidate_tag never rehash
// a key and the key bytes are stored once.
//
// Sharding: the key hash picks one of `shards` independent LRU maps,
// each behind its own mutex, so concurrent producers rarely contend on
// one lock.  Eviction is per shard (capacity is split evenly), which
// bounds total residency at `capacity` entries while keeping eviction
// decisions lock-local.  A full shard recycles its least-recently-used
// entry in place (list node, index node and string capacity), so a warm
// cache inserts without allocating.
//
// Tagged invalidation: entries inserted with put_tagged() carry the ids
// of the registered arrays their result depends on; invalidate_tag(id)
// drops every such entry.  Unregistering an array invalidates its tag,
// which closes the stale-read hole where a re-registered or removed id
// could still answer `ok` from cache.  Invalidation scans the shards --
// unregister is rare and the cache is small, so an O(entries) sweep
// beats maintaining a reverse index on the hot put path.
//
// Poisoning detection: every entry stores the checksum of its value at
// insertion; every lookup re-verifies it before answering.  A mismatch
// (memory corruption, or the serve.cache_poison fault site in a chaos
// run) drops the entry and reports a miss, so a poisoned cache degrades
// to recomputation -- the response bytes stay correct -- and the
// `poisoned` counter records the detection.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "support/fnv.hpp"

namespace pmonge::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // entries dropped by invalidate_tag
  std::uint64_t poisoned = 0;       // checksum mismatches detected on get
  std::size_t entries = 0;
};

/// Word-wise FNV-1a (support/fnv.hpp): a key's hash and a value's
/// poisoning checksum alike.
inline std::uint64_t cache_checksum(std::string_view v) {
  return support::fnv1a(v);
}

/// The ids of the registered arrays a cached result read: at most three
/// (a query's "array", or a tube's "d" and "e").
class CacheTags {
 public:
  CacheTags() = default;
  CacheTags(std::initializer_list<std::uint64_t> ids) {
    for (const std::uint64_t id : ids) add(id);
  }
  void add(std::uint64_t id) {
    if (n_ < ids_.size()) ids_[n_++] = id;
  }
  bool has(std::uint64_t id) const {
    return std::find(ids_.begin(), ids_.begin() + n_, id) !=
           ids_.begin() + n_;
  }

 private:
  std::array<std::uint64_t, 3> ids_{};
  std::uint8_t n_ = 0;
};

class ShardedLruCache {
 public:
  /// A cache holding at most ~`capacity` entries across `shards` shards
  /// (each shard holds at most ceil(capacity / shards)).  capacity == 0
  /// disables the cache: lookups always miss, inserts are no-ops.
  ShardedLruCache(std::size_t capacity, std::size_t shards)
      : per_shard_(shards == 0 ? capacity
                               : (capacity + shards - 1) / std::max<std::size_t>(1, shards)) {
    const std::size_t n = std::max<std::size_t>(1, shards);
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  bool enabled() const { return per_shard_ > 0; }

  /// Look up `key`, whose cache_checksum is `hash`: a hit appends the
  /// value to `out` and refreshes its recency.  Counts the hit or the
  /// miss.
  bool get(std::string_view key, std::uint64_t hash, std::string& out) {
    return lookup(key, hash, out, true);
  }

  /// get() hashing `key` itself, returning a copy of the value.
  std::optional<std::string> get(std::string_view key) {
    std::string out;
    if (!get(key, cache_checksum(key), out)) return std::nullopt;
    return out;
  }

  /// The admission probe: get() that counts only a hit.  A missed line
  /// goes on to be computed, and its miss is counted there (count_miss,
  /// or a queued line's get()), so each line counts exactly once.
  bool get_hit(std::string_view key, std::uint64_t hash, std::string& out) {
    return lookup(key, hash, out, false);
  }

  /// Count the miss of a key whose get_hit() probe missed.
  void count_miss(std::uint64_t hash) {
    if (!enabled()) return;
    Shard& sh = shard_of(hash);
    std::lock_guard<std::mutex> lock(sh.mu);
    ++sh.misses;
  }

  /// Insert or refresh `key`; a full shard evicts its least-recently-used
  /// entry.
  void put(std::string_view key, std::string_view value) {
    put_tagged(key, cache_checksum(key), value, {});
  }

  /// put() plus dependency tags: the entry is dropped when any of its
  /// tags is invalidated.  The serve layer tags each result with the ids
  /// of the arrays it read.
  void put_tagged(std::string_view key, std::string_view value,
                  CacheTags tags) {
    put_tagged(key, cache_checksum(key), value, tags);
  }

  void put_tagged(std::string_view key, std::uint64_t hash,
                  std::string_view value, CacheTags tags) {
    if (!enabled()) return;
    Shard& sh = shard_of(hash);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(KeyRef{hash, key});
    if (it != sh.index.end()) {
      store(*it->second, value, tags);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      return;
    }
    ++sh.insertions;
    if (sh.lru.size() >= per_shard_) {
      // Full: the least-recently-used entry becomes the new one, its
      // list node, index node and string capacity reused.
      const auto last = std::prev(sh.lru.end());
      auto node = sh.index.extract(KeyRef{last->hash, last->key});
      sh.lru.splice(sh.lru.begin(), sh.lru, last);
      last->key.assign(key);
      last->hash = hash;
      store(*last, value, tags);
      node.key() = KeyRef{hash, last->key};
      node.mapped() = sh.lru.begin();
      sh.index.insert(std::move(node));
      ++sh.evictions;
      return;
    }
    sh.lru.emplace_front();
    Entry& e = sh.lru.front();
    e.key.assign(key);
    e.hash = hash;
    store(e, value, tags);
    sh.index.emplace(KeyRef{hash, e.key}, sh.lru.begin());
  }

  /// Drop every entry tagged with `tag`; returns the number dropped.
  std::size_t invalidate_tag(std::uint64_t tag) {
    std::size_t dropped = 0;
    for (auto& shp : shards_) {
      Shard& sh = *shp;
      std::lock_guard<std::mutex> lock(sh.mu);
      for (auto it = sh.lru.begin(); it != sh.lru.end();) {
        if (it->tags.has(tag)) {
          sh.index.erase(KeyRef{it->hash, it->key});
          it = sh.lru.erase(it);
          ++sh.invalidations;
          ++dropped;
        } else {
          ++it;
        }
      }
    }
    return dropped;
  }

  void clear() {
    for (auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->mu);
      sh->index.clear();
      sh->lru.clear();
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->mu);
      n += sh->lru.size();
    }
    return n;
  }

  CacheStats stats() const {
    CacheStats s;
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh->mu);
      s.hits += sh->hits;
      s.misses += sh->misses;
      s.insertions += sh->insertions;
      s.evictions += sh->evictions;
      s.invalidations += sh->invalidations;
      s.poisoned += sh->poisoned;
      s.entries += sh->lru.size();
    }
    return s;
  }

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::uint64_t hash = 0;  // cache_checksum(key)
    std::uint64_t sum = 0;   // cache_checksum(value) at insertion
    CacheTags tags;          // array ids the value depends on
  };

  /// An index key: an entry's stored hash and a view of its key bytes
  /// (or, for a probe, the caller's).
  struct KeyRef {
    std::uint64_t hash;
    std::string_view key;
    bool operator==(const KeyRef& o) const {
      return hash == o.hash && key == o.key;
    }
  };
  struct KeyRefHash {
    std::size_t operator()(const KeyRef& k) const {
      return static_cast<std::size_t>(k.hash);
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = newest
    std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyRefHash> index;
    std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0,
                  invalidations = 0, poisoned = 0;
  };

  bool lookup(std::string_view key, std::uint64_t hash, std::string& out,
              bool count_miss) {
    if (!enabled()) return false;
    Shard& sh = shard_of(hash);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(KeyRef{hash, key});
    if (it == sh.index.end()) {
      if (count_miss) ++sh.misses;
      return false;
    }
    const auto entry = it->second;
    if (cache_checksum(entry->value) != entry->sum) {
      // Poisoned entry: never serve it.  Dropping it turns the hit into
      // a miss, so the caller recomputes and the response stays correct.
      sh.index.erase(it);
      sh.lru.erase(entry);
      ++sh.poisoned;
      if (count_miss) ++sh.misses;
      return false;
    }
    ++sh.hits;
    sh.lru.splice(sh.lru.begin(), sh.lru, entry);
    out += entry->value;
    return true;
  }

  /// The value, its checksum and its tags into `e`.  The checksum is
  /// taken over the *correct* bytes; the fault site then corrupts the
  /// stored copy, so a later lookup detects the mismatch -- the
  /// detection path the chaos harness exercises.
  static void store(Entry& e, std::string_view value, CacheTags tags) {
    e.value.assign(value);
    e.sum = cache_checksum(value);
    e.tags = tags;
    if (fault::armed() && fault::should_fire(fault::Site::ServeCachePoison) &&
        !e.value.empty()) {
      e.value[e.value.size() / 2] ^= 0x40;
    }
  }

  Shard& shard_of(std::uint64_t hash) {
    return *shards_[hash % shards_.size()];
  }

  std::size_t per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pmonge::serve
