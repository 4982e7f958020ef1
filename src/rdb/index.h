// Secondary indexes for the rdb engine.
//
// HashIndex is the workhorse (equality lookups on names and ids). Its
// delete behaviour is profile-dependent, mirroring the back ends in the
// paper:
//   * erase-on-delete (MySQL profile): entries are removed immediately;
//     lookup cost stays flat under add/delete churn.
//   * tombstone-on-delete (PostgreSQL profile): deleted entries stay in
//     the bucket chains and are skipped on every probe until VACUUM
//     rebuilds the index. Probe cost therefore grows with accumulated
//     deletions — the mechanism behind the Fig. 8 saw-tooth.
//
// OrderedIndex supports range predicates; the RLI uses it on
// t_map.updatetime so the expire thread can discard stale soft state
// without a full scan.
//
// Writes are not thread-safe (the owning engine takes an exclusive
// statement lock); concurrent Lookup/ContainsKey calls under a shared
// lock are safe — the probe counters they maintain are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rdb/heap.h"
#include "rdb/value.h"

namespace rdb {

/// Delete behaviour, selected by the database BackendProfile.
enum class IndexDeleteMode {
  kErase,      // MySQL profile
  kTombstone,  // PostgreSQL profile
};

/// Statistics used by tests and the vacuum policy. The probe counters
/// are updated from const read paths that run concurrently under the
/// engine's shared statement lock, so they are relaxed atomics; the
/// entry counters only change under the exclusive (write) lock.
struct IndexStats {
  uint64_t live_entries = 0;
  uint64_t tombstones = 0;
  std::atomic<uint64_t> probes{0};       // lookups performed
  std::atomic<uint64_t> probe_steps{0};  // chain entries visited across all probes
};

/// Chained hash index mapping Value keys to Rids (multimap semantics —
/// non-unique indexes like t_map.lfn_id hold many rids per key).
class HashIndex {
 public:
  explicit HashIndex(IndexDeleteMode mode, bool unique = false,
                     std::size_t initial_buckets = 64);

  /// Inserts key->rid. For unique indexes, returns false if a live entry
  /// with an equal key exists (caller reports duplicate-key error).
  bool Insert(const Value& key, Rid rid);

  /// Removes (or tombstones) the entry for (key, rid). Missing entries are
  /// ignored.
  void Erase(const Value& key, Rid rid);

  /// Appends all live rids for `key` to `out`.
  void Lookup(const Value& key, std::vector<Rid>* out) const;

  /// True if a live entry with this key exists.
  bool ContainsKey(const Value& key) const;

  /// Drops all entries (vacuum rebuild path).
  void Clear();

  bool unique() const { return unique_; }
  IndexDeleteMode delete_mode() const { return mode_; }
  const IndexStats& stats() const { return stats_; }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  struct Entry {
    uint64_t hash;
    Value key;
    Rid rid;
    bool dead;
  };

  void MaybeGrow();
  std::size_t BucketFor(uint64_t hash) const { return hash & (buckets_.size() - 1); }

  IndexDeleteMode mode_;
  bool unique_;
  std::vector<std::vector<Entry>> buckets_;
  mutable IndexStats stats_;
};

/// Ordered index over one column supporting range scans.
class OrderedIndex {
 public:
  OrderedIndex() = default;

  void Insert(const Value& key, Rid rid);
  void Erase(const Value& key, Rid rid);

  /// Appends rids with key < bound (used by soft-state expiration:
  /// "discard entries older than the timeout").
  void LookupLess(const Value& bound, std::vector<Rid>* out) const;

  /// Appends rids with lo <= key <= hi.
  void LookupRange(const Value& lo, const Value& hi, std::vector<Rid>* out) const;

  void Lookup(const Value& key, std::vector<Rid>* out) const;

  /// Calls `fn` on every rid in ascending key order until it returns
  /// false.
  template <typename Fn>
  void Walk(Fn&& fn) const {
    for (const auto& [key, rid] : entries_) {
      if (!fn(rid)) return;
    }
  }

  void Clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const { return a.Compare(b) < 0; }
  };
  std::multimap<Value, Rid, ValueLess> entries_;
};

}  // namespace rdb
