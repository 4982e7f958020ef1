// Secondary indexes for the rdb engine.
//
// HashIndex is the workhorse (equality lookups on names and ids). It is
// one power-of-two array of 16-byte entries, probed linearly, with one
// entry per distinct key: the key's 64-bit hash, a state, and either the
// Rid of the one row that holds the key or, for a key that several rows
// hold, the number of its Group. The key itself is not stored. A probe
// whose hash matches compares the key against the indexed column of a
// row, read in place from its heap page (EncodedColumnEquals: no row
// decode, no allocation). The array doubles once more than 3/4 of its
// slots hold keys.
//
// A Group keeps the rows of its key in insertion order beside a small
// open-addressed table from rid to position, so a key that many rows
// share (the RLI's t_map.lrc_id holds one key per LRC) costs O(1) per
// insert and erase, however many rows hold it, and forms no long probe
// run that other keys would have to walk.
//
// Its delete behaviour is profile-dependent, mirroring the back ends in
// the paper:
//   * erase-on-delete (MySQL profile): an erase removes the row. A key
//     left with no row leaves the array by backward-shift deletion, so
//     add/delete churn leaves no markers and lookup cost stays flat
//     (Fig. 6).
//   * tombstone-on-delete (PostgreSQL profile): an erase marks the row
//     dead. It stays under its key until VACUUM rebuilds the index
//     (Clear), and Lookup still returns dead rows whose key matches, so
//     the caller pays one heap fetch per dead version to decide
//     visibility: the mechanism behind the Fig. 8 saw-tooth. A key whose
//     rows are all dead keeps its slot, so it counts toward the load and
//     is carried through growth; counting keys with live rows only, as
//     the old chained buckets counted live entries, would let churn fill
//     the array with dead keys and leave no empty slot to end a probe.
//
// OrderedIndex supports range predicates; the RLI uses it on
// t_map.updatetime so the expire thread can discard stale soft state
// without a full scan. It still stores a copy of each key.
//
// Writes are not thread-safe (the owning engine takes an exclusive
// statement lock); concurrent Lookup/ContainsKey calls under a shared
// lock are safe — they write nothing shared.
#pragma once

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

/// Statistics used by tests and the vacuum policy. They change only
/// under the engine's exclusive (write) lock: reads count nothing.
struct IndexStats {
  uint64_t live_entries = 0;
  uint64_t tombstones = 0;
  uint64_t probe_steps = 0;  // entries visited by Insert and Erase
};

/// Open-addressed hash index mapping the keys of one heap column to Rids
/// (multimap semantics — non-unique indexes like t_map.lfn_id hold many
/// rids per key). Key equality is Value::Compare's: Int(3) equals
/// Double(3.0), and NULL equals NULL.
class HashIndex {
 public:
  enum class EntryState : uint8_t { kEmpty = 0, kLive = 1, kDead = 2, kGroup = 3 };

  /// One slot of the key array, or one row of a Group. The Rid's fields
  /// are stored unpacked so the state fits beside them in 16 bytes. A
  /// kGroup slot keeps its group's number in `page`; a group's rows keep
  /// the hash of their rid, not of the key.
  struct Entry {
    uint64_t hash = 0;
    uint32_t page = 0;
    uint16_t slot = 0;
    EntryState state = EntryState::kEmpty;

    Rid rid() const { return Rid{page, slot}; }
  };

  /// Indexes column `column` of the rows in `heap`, which must outlive
  /// the index. A rid handed to Insert must hold its key in `heap` (live
  /// or dead) for as long as its entry exists.
  HashIndex(const HeapFile* heap, std::size_t column, IndexDeleteMode mode,
            bool unique = false);

  /// Inserts key->rid. For unique indexes, returns false if a live entry
  /// with an equal key exists (caller reports duplicate-key error).
  bool Insert(const Value& key, Rid rid);

  /// Removes (or marks dead) the live entry for (key, rid), found by
  /// the key's hash and the rid without reading the key. Missing entries
  /// are ignored.
  void Erase(const Value& key, Rid rid);

  /// Appends the rids of the entries whose key equals `key`, in the
  /// order they were inserted (an erase moves the key's last rid into
  /// the gap): live ones, and under the tombstone mode dead ones too.
  /// Adds the entries it visited to `*steps` when given (tests).
  void Lookup(const Value& key, std::vector<Rid>* out, uint64_t* steps = nullptr) const;

  /// True if a live entry with this key exists.
  bool ContainsKey(const Value& key) const;

  /// Drops all entries, keeping the key array's size (vacuum rebuild
  /// path).
  void Clear();

  bool unique() const { return unique_; }
  IndexDeleteMode delete_mode() const { return mode_; }
  const IndexStats& stats() const { return stats_; }
  std::size_t slot_count() const { return slots_.size(); }

 private:
  /// The rows of a key that more than one row holds, in insertion order.
  /// `where` is a power-of-two, linear-probed table homed at each row's
  /// rid hash, holding 1 + the row's position in `rows` (0 = empty).
  struct Group {
    std::vector<Entry> rows;
    std::vector<uint32_t> where;
    uint32_t live = 0;
  };

  std::size_t Home(uint64_t hash) const { return hash & (slots_.size() - 1); }
  std::size_t Next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }
  /// True if the row of key slot `e` (the first row of its group) holds
  /// `key`, read from the heap; callers compare the hash first.
  bool KeyMatches(const Entry& e, const Value& key) const;
  /// The key slot holding `key`, or the empty slot that ends its run.
  std::size_t FindKey(const Value& key, uint64_t hash, uint64_t* steps) const;
  /// True if key slot `e` holds a live row.
  bool HasLive(const Entry& e) const;
  /// Appends `row` to group `g` and to its `where` table; returns the
  /// occupied `where` slots it passed.
  static uint64_t AddRow(Group* g, Entry row);
  /// Removes (or marks dead) the row at `where` slot `w` of the group in
  /// key slot `i`; a group left with one row goes back into the slot.
  void EraseGroupRow(std::size_t i, std::size_t w);
  uint32_t NewGroup();
  void GrowIfFull();

  const HeapFile* heap_;
  std::size_t column_;
  IndexDeleteMode mode_;
  bool unique_;
  std::vector<Entry> slots_;
  std::size_t used_slots_ = 0;  // keys in slots_, live or dead
  std::vector<Group> groups_;
  std::vector<uint32_t> free_groups_;
  IndexStats stats_;
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
