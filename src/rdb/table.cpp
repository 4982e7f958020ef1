#include "rdb/table.h"

#include <algorithm>

namespace rdb {

using rlscommon::Status;

Table::Table(TableSchema schema, const BackendProfile* profile)
    : schema_(std::move(schema)), profile_(profile) {}

Status Table::CreateIndex(const std::string& index_name, const std::string& column,
                          IndexKind kind, bool unique) {
  for (const IndexEntry& e : indexes_) {
    if (e.name == index_name) {
      return Status::AlreadyExists("index " + index_name + " already exists");
    }
  }
  auto col = schema_.FindColumn(column);
  if (!col) {
    return Status::InvalidArgument("no column " + column + " in table " + name());
  }
  IndexEntry entry;
  entry.name = index_name;
  entry.column = *col;
  entry.kind = kind;
  entry.unique = unique;
  if (kind == IndexKind::kHash) {
    entry.hash = std::make_unique<HashIndex>(&heap_, *col, profile_->index_delete_mode(),
                                             unique);
  } else {
    entry.ordered = std::make_unique<OrderedIndex>();
  }
  // Index existing live rows.
  Status status = Status::Ok();
  heap_.Scan([&](Rid rid, std::string_view bytes, SlotState st) {
    if (st != SlotState::kLive) return true;
    Row row;
    status = DecodeRow(bytes, schema_.num_columns(), &row);
    if (!status.ok()) return false;
    if (entry.kind == IndexKind::kHash) {
      if (!entry.hash->Insert(row[entry.column], rid)) {
        status = Status::AlreadyExists("duplicate key building unique index " + index_name);
        return false;
      }
    } else {
      entry.ordered->Insert(row[entry.column], rid);
    }
    return true;
  });
  if (!status.ok()) return status;
  indexes_.push_back(std::move(entry));
  return Status::Ok();
}

Status Table::Insert(Row row, Rid* rid_out, int64_t* auto_id) {
  // Assign the auto-increment id first so NOT NULL validation sees it.
  if (auto auto_col = schema_.AutoIncrementColumn()) {
    Value& v = row[*auto_col];
    if (v.is_null()) {
      v = Value::Int(++auto_counter_);
    } else {
      auto_counter_ = std::max(auto_counter_, v.AsInt());
    }
    if (auto_id) *auto_id = v.AsInt();
  } else if (auto_id) {
    *auto_id = 0;
  }

  Status valid = schema_.ValidateRow(row);
  if (!valid.ok()) return valid;

  // Check unique constraints before touching anything. Index lookups may
  // return dead rids (tombstone mode); each costs a heap fetch to decide
  // visibility — the PostgreSQL dead-tuple tax of paper Fig. 8.
  for (const IndexEntry& e : indexes_) {
    if (!e.unique || e.kind != IndexKind::kHash) continue;
    std::vector<Rid> rids;
    e.hash->Lookup(row[e.column], &rids);
    for (Rid rid : rids) {
      if (heap_.state(rid) == SlotState::kLive) {
        return Status::AlreadyExists("duplicate key '" + row[e.column].ToString() +
                                     "' for unique index " + e.name);
      }
      Row scratch;  // visibility check: decode the dead tuple
      (void)DecodeRow(heap_.Read(rid), schema_.num_columns(), &scratch);
    }
  }

  std::string bytes;
  EncodeRow(row, &bytes);
  Rid rid = heap_.Insert(bytes);
  Status idx = InsertIntoIndexes(row, rid);
  if (!idx.ok()) {
    heap_.MarkFree(rid);
    return idx;
  }
  ++stats_.inserts;
  if (rid_out) *rid_out = rid;
  return Status::Ok();
}

Status Table::Delete(Rid rid) {
  if (heap_.state(rid) != SlotState::kLive) {
    return Status::NotFound("row is not live");
  }
  Row row;
  Status status = ReadRow(rid, &row);
  if (!status.ok()) return status;
  EraseFromIndexes(row, rid);
  if (profile_->heap_dead_tuples()) {
    heap_.MarkDead(rid);
  } else {
    heap_.MarkFree(rid);
  }
  ++stats_.deletes;
  return Status::Ok();
}

Status Table::DeleteByValue(const Row& image) {
  if (image.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row image arity mismatch for " + name());
  }
  // Prefer a unique hash index: one probe instead of a scan.
  for (const IndexEntry& e : indexes_) {
    if (e.kind != IndexKind::kHash || !e.unique || !e.hash) continue;
    std::vector<Rid> rids;
    e.hash->Lookup(image[e.column], &rids);
    for (Rid rid : rids) {
      Row row;
      if (heap_.state(rid) == SlotState::kLive && ReadRow(rid, &row).ok() &&
          row == image) {
        return Delete(rid);
      }
    }
    return Status::NotFound("row not found by unique index in " + name());
  }
  // Scan fallback.
  Rid found;
  bool have = false;
  Scan([&](Rid rid, SlotState st) {
    if (st != SlotState::kLive) return true;
    Row row;
    if (ReadRow(rid, &row).ok() && row == image) {
      found = rid;
      have = true;
      return false;
    }
    return true;
  });
  if (!have) return Status::NotFound("row not found by scan in " + name());
  return Delete(found);
}

Status Table::Update(Rid rid, Row new_row, Rid* new_rid) {
  Status valid = schema_.ValidateRow(new_row);
  if (!valid.ok()) return valid;
  if (heap_.state(rid) != SlotState::kLive) {
    return Status::NotFound("row is not live");
  }
  Row old_row;
  Status status = ReadRow(rid, &old_row);
  if (!status.ok()) return status;

  // Unique checks, ignoring the row being replaced.
  for (const IndexEntry& e : indexes_) {
    if (!e.unique || e.kind != IndexKind::kHash) continue;
    if (new_row[e.column] == old_row[e.column]) continue;
    if (e.hash->ContainsKey(new_row[e.column])) {
      return Status::AlreadyExists("duplicate key on update for index " + e.name);
    }
  }

  EraseFromIndexes(old_row, rid);
  if (profile_->heap_dead_tuples()) {
    heap_.MarkDead(rid);  // PostgreSQL: update = delete + insert
  } else {
    heap_.MarkFree(rid);
  }
  std::string bytes;
  EncodeRow(new_row, &bytes);
  Rid fresh = heap_.Insert(bytes);
  Status idx = InsertIntoIndexes(new_row, fresh);
  if (!idx.ok()) return idx;
  ++stats_.updates;
  if (new_rid) *new_rid = fresh;
  return Status::Ok();
}

Status Table::ReadRow(Rid rid, Row* out) const {
  return DecodeRow(heap_.Read(rid), schema_.num_columns(), out);
}

const HashIndex* Table::FindHashIndex(const std::string& column) const {
  auto col = schema_.FindColumn(column);
  if (!col) return nullptr;
  for (const IndexEntry& e : indexes_) {
    if (e.kind == IndexKind::kHash && e.column == *col) return e.hash.get();
  }
  return nullptr;
}

const OrderedIndex* Table::FindOrderedIndex(const std::string& column) const {
  auto col = schema_.FindColumn(column);
  if (!col) return nullptr;
  for (const IndexEntry& e : indexes_) {
    if (e.kind == IndexKind::kOrdered && e.column == *col) return e.ordered.get();
  }
  return nullptr;
}

void Table::Scan(const std::function<bool(Rid, SlotState)>& fn) const {
  heap_.Scan([&](Rid rid, std::string_view, SlotState st) {
    stats_.seq_scan_rows.fetch_add(1, std::memory_order_relaxed);
    return fn(rid, st);
  });
}

void Table::Vacuum() {
  // Collect live rows, rebuild the heap compactly, rebuild every index.
  std::vector<Row> live;
  live.reserve(heap_.live_count());
  heap_.Scan([&](Rid, std::string_view bytes, SlotState st) {
    if (st != SlotState::kLive) return true;
    Row row;
    if (DecodeRow(bytes, schema_.num_columns(), &row).ok()) {
      live.push_back(std::move(row));
    }
    return true;
  });
  heap_.Clear();
  for (IndexEntry& e : indexes_) {
    if (e.kind == IndexKind::kHash) {
      e.hash->Clear();
    } else {
      e.ordered->Clear();
    }
  }
  for (Row& row : live) {
    std::string bytes;
    EncodeRow(row, &bytes);
    Rid rid = heap_.Insert(bytes);
    for (IndexEntry& e : indexes_) {
      if (e.kind == IndexKind::kHash) {
        e.hash->Insert(row[e.column], rid);
      } else {
        e.ordered->Insert(row[e.column], rid);
      }
    }
  }
}

std::vector<std::string> Table::IndexNames() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const IndexEntry& e : indexes_) names.push_back(e.name);
  return names;
}

Status Table::InsertIntoIndexes(const Row& row, Rid rid) {
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    IndexEntry& e = indexes_[i];
    bool ok = true;
    if (e.kind == IndexKind::kHash) {
      ok = e.hash->Insert(row[e.column], rid);
    } else {
      e.ordered->Insert(row[e.column], rid);
    }
    if (!ok) {
      // Undo the partial index inserts (unique race cannot happen — the
      // caller checked — but stay safe).
      for (std::size_t j = 0; j < i; ++j) {
        IndexEntry& u = indexes_[j];
        if (u.kind == IndexKind::kHash) {
          u.hash->Erase(row[u.column], rid);
        } else {
          u.ordered->Erase(row[u.column], rid);
        }
      }
      return Status::AlreadyExists("duplicate key for unique index " + e.name);
    }
  }
  return Status::Ok();
}

void Table::EraseFromIndexes(const Row& row, Rid rid) {
  for (IndexEntry& e : indexes_) {
    if (e.kind == IndexKind::kHash) {
      e.hash->Erase(row[e.column], rid);
    } else {
      e.ordered->Erase(row[e.column], rid);
    }
  }
}

}  // namespace rdb
