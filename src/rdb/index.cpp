#include "rdb/index.h"

#include <algorithm>

#include "rdb/schema.h"

namespace rdb {
namespace {

using Entry = HashIndex::Entry;
using EntryState = HashIndex::EntryState;

constexpr std::size_t kInitialSlots = 16;  // a power of two
constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

// splitmix64's finalizer over the packed rid: a group's `where` table is
// homed at the low bits, which the raw page and slot numbers would crowd.
uint64_t RidHash(Rid rid) {
  uint64_t x = (uint64_t{rid.page} << 16) | rid.slot;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The two linear-probed arrays: key slots and a group's `where` table.
bool Occupied(const Entry& e) { return e.state != EntryState::kEmpty; }
bool Occupied(uint32_t position) { return position != 0; }

// Puts `value` in the first empty slot from `home` on; returns the
// number of occupied slots passed.
template <typename Slot>
uint64_t Place(std::vector<Slot>* slots, std::size_t home, Slot value) {
  const std::size_t mask = slots->size() - 1;
  uint64_t steps = 0;
  for (; Occupied((*slots)[home]); home = (home + 1) & mask) ++steps;
  (*slots)[home] = value;
  return steps;
}

// Backward-shift deletion: empties slot `hole`, and each later entry of
// its run moves into the hole unless its home (`home_of(entry)`) lies
// after the hole, so every run stays unbroken and no marker is left.
template <typename Slot, typename HomeOf>
void RemoveAt(std::vector<Slot>* slots, std::size_t hole, HomeOf home_of) {
  const std::size_t mask = slots->size() - 1;
  for (std::size_t i = (hole + 1) & mask; Occupied((*slots)[i]); i = (i + 1) & mask) {
    if (((i - home_of((*slots)[i])) & mask) >= ((i - hole) & mask)) {
      (*slots)[hole] = (*slots)[i];
      hole = i;
    }
  }
  (*slots)[hole] = Slot{};
}

// The `where` slot of the live row `rid` in `rows`, or kNotFound.
std::size_t FindRow(const std::vector<Entry>& rows, const std::vector<uint32_t>& where,
                    Rid rid, uint64_t* steps) {
  const std::size_t mask = where.size() - 1;
  for (std::size_t w = RidHash(rid) & mask; where[w] != 0; w = (w + 1) & mask) {
    ++*steps;
    const Entry& row = rows[where[w] - 1];
    if (row.state == EntryState::kLive && row.rid() == rid) return w;
  }
  return kNotFound;
}

}  // namespace

HashIndex::HashIndex(const HeapFile* heap, std::size_t column, IndexDeleteMode mode,
                     bool unique)
    : heap_(heap), column_(column), mode_(mode), unique_(unique), slots_(kInitialSlots) {}

bool HashIndex::KeyMatches(const Entry& e, const Value& key) const {
  const Rid rid = e.state == EntryState::kGroup ? groups_[e.page].rows[0].rid() : e.rid();
  return EncodedColumnEquals(heap_->Read(rid), column_, key);
}

std::size_t HashIndex::FindKey(const Value& key, uint64_t hash, uint64_t* steps) const {
  std::size_t i = Home(hash);
  for (; Occupied(slots_[i]); i = Next(i)) {
    ++*steps;
    if (slots_[i].hash == hash && KeyMatches(slots_[i], key)) break;
  }
  return i;
}

bool HashIndex::HasLive(const Entry& e) const {
  return e.state == EntryState::kGroup ? groups_[e.page].live > 0
                                       : e.state == EntryState::kLive;
}

bool HashIndex::Insert(const Value& key, Rid rid) {
  GrowIfFull();
  const uint64_t hash = key.Hash();
  uint64_t steps = 0;
  Entry& e = slots_[FindKey(key, hash, &steps)];
  const Entry row{hash, rid.page, rid.slot, EntryState::kLive};
  const bool inserted = !(unique_ && HasLive(e));
  if (!Occupied(e)) {
    e = row;
    ++used_slots_;
  } else if (inserted) {
    if (e.state != EntryState::kGroup) {
      // The key's second row: both move into a new group.
      const uint32_t g = NewGroup();
      steps += AddRow(&groups_[g], e);
      e = Entry{hash, g, 0, EntryState::kGroup};
    }
    steps += AddRow(&groups_[e.page], row);
  }
  stats_.probe_steps += steps;
  if (inserted) ++stats_.live_entries;
  return inserted;
}

void HashIndex::Erase(const Value& key, Rid rid) {
  const uint64_t hash = key.Hash();
  uint64_t steps = 0;
  for (std::size_t i = Home(hash); Occupied(slots_[i]); i = Next(i)) {
    ++steps;
    Entry& e = slots_[i];
    if (e.hash != hash) continue;
    if (e.state == EntryState::kGroup) {
      const Group& g = groups_[e.page];
      const std::size_t w = FindRow(g.rows, g.where, rid, &steps);
      if (w == kNotFound) continue;
      EraseGroupRow(i, w);
    } else if (e.state != EntryState::kLive || e.rid() != rid) {
      continue;
    } else if (mode_ == IndexDeleteMode::kErase) {
      RemoveAt(&slots_, i, [this](const Entry& x) { return Home(x.hash); });
      --used_slots_;
    } else {
      e.state = EntryState::kDead;
    }
    if (mode_ == IndexDeleteMode::kTombstone) ++stats_.tombstones;
    --stats_.live_entries;
    break;
  }
  stats_.probe_steps += steps;
}

void HashIndex::Lookup(const Value& key, std::vector<Rid>* out, uint64_t* steps_out) const {
  const uint64_t hash = key.Hash();
  uint64_t steps = 0;
  const Entry& e = slots_[FindKey(key, hash, &steps)];
  // Dead entries (tombstone mode only) are returned too: like a
  // PostgreSQL index, visibility is only decided by fetching the heap
  // tuple — the caller pays that fetch, which is what makes un-vacuumed
  // churn expensive (paper Fig. 8).
  if (e.state == EntryState::kGroup) {
    const std::vector<Entry>& rows = groups_[e.page].rows;
    for (const Entry& row : rows) out->push_back(row.rid());
    steps += rows.size();
  } else if (Occupied(e)) {
    out->push_back(e.rid());
  }
  if (steps_out) *steps_out += steps;
}

bool HashIndex::ContainsKey(const Value& key) const {
  uint64_t steps = 0;
  return HasLive(slots_[FindKey(key, key.Hash(), &steps)]);
}

void HashIndex::Clear() {
  std::fill(slots_.begin(), slots_.end(), Entry{});
  used_slots_ = 0;
  groups_.clear();
  free_groups_.clear();
  stats_.live_entries = 0;
  stats_.tombstones = 0;
}

uint64_t HashIndex::AddRow(Group* g, Entry row) {
  row.hash = RidHash(row.rid());
  g->rows.push_back(row);
  if (row.state == EntryState::kLive) ++g->live;
  if (g->rows.size() * 2 <= g->where.size()) {
    return Place(&g->where, row.hash & (g->where.size() - 1),
                 static_cast<uint32_t>(g->rows.size()));
  }
  // Past half full (its slots are 4 bytes, so probes stay short for
  // little memory): rebuild `where` at twice the size, 4 at first.
  g->where.assign(std::max<std::size_t>(4, g->where.size() * 2), 0);
  uint64_t steps = 0;
  for (uint32_t p = 0; p < g->rows.size(); ++p) {
    steps += Place(&g->where, g->rows[p].hash & (g->where.size() - 1), p + 1);
  }
  return steps;
}

void HashIndex::EraseGroupRow(std::size_t i, std::size_t w) {
  const uint32_t number = slots_[i].page;
  Group& g = groups_[number];
  const uint32_t position = g.where[w] - 1;
  --g.live;
  if (mode_ == IndexDeleteMode::kTombstone) {
    g.rows[position].state = EntryState::kDead;
    return;
  }
  const std::size_t mask = g.where.size() - 1;
  RemoveAt(&g.where, w, [&](uint32_t p) { return g.rows[p - 1].hash & mask; });
  // The last row fills the gap, and its `where` slot follows it.
  const uint32_t last = static_cast<uint32_t>(g.rows.size() - 1);
  if (position != last) {
    g.rows[position] = g.rows[last];
    std::size_t x = g.rows[position].hash & mask;
    while (g.where[x] != last + 1) x = (x + 1) & mask;
    g.where[x] = position + 1;
  }
  g.rows.pop_back();
  if (g.rows.size() == 1) {
    const Rid rid = g.rows[0].rid();
    slots_[i] = Entry{slots_[i].hash, rid.page, rid.slot, EntryState::kLive};
    g = Group{};
    free_groups_.push_back(number);
  }
}

uint32_t HashIndex::NewGroup() {
  if (free_groups_.empty()) {
    groups_.emplace_back();
    return static_cast<uint32_t>(groups_.size() - 1);
  }
  const uint32_t number = free_groups_.back();
  free_groups_.pop_back();
  return number;
}

void HashIndex::GrowIfFull() {
  // Every key in the array counts toward the load, dead ones too; growth
  // carries them over until Clear().
  if ((used_slots_ + 1) * 4 <= slots_.size() * 3) return;
  std::vector<Entry> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Entry& e : old) {
    if (Occupied(e)) Place(&slots_, Home(e.hash), e);
  }
}

void OrderedIndex::Insert(const Value& key, Rid rid) {
  entries_.emplace(key, rid);
}

void OrderedIndex::Erase(const Value& key, Rid rid) {
  auto [begin, end] = entries_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      entries_.erase(it);
      return;
    }
  }
}

void OrderedIndex::LookupLess(const Value& bound, std::vector<Rid>* out) const {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first.Compare(bound) >= 0) break;
    out->push_back(it->second);
  }
}

void OrderedIndex::LookupRange(const Value& lo, const Value& hi,
                               std::vector<Rid>* out) const {
  for (auto it = entries_.lower_bound(lo); it != entries_.end(); ++it) {
    if (it->first.Compare(hi) > 0) break;
    out->push_back(it->second);
  }
}

void OrderedIndex::Lookup(const Value& key, std::vector<Rid>* out) const {
  auto [begin, end] = entries_.equal_range(key);
  for (auto it = begin; it != end; ++it) out->push_back(it->second);
}

}  // namespace rdb
