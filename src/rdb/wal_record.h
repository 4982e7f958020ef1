// Logical WAL record codec.
//
// A committed transaction's WAL payload is a stream of self-describing
// row-mutation records (the mutations sql::Session buffers per
// statement). Each record carries everything replay needs:
//
//   u8  tag          'I' insert / 'U' update / 'D' delete
//   u16 table_len    + table name bytes
//   row image(s)     each as u16 column count + Value::Encode values
//
// Insert carries the stored row (auto-increment id already assigned, so
// replay re-inserts the same id). Delete carries the old image (replay
// deletes by value). Update carries BOTH images, old then new — the new
// image alone cannot locate the row to replace during replay.
//
// Lives in rdb (not sql) because Database::Recover must decode it and
// sql sits above rdb in the layering.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "rdb/schema.h"

namespace rdb {

enum class WalRecordType : uint8_t {
  kInsert = 'I',
  kUpdate = 'U',
  kDelete = 'D',
};

/// One decoded row mutation.
struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  std::string table;
  Row row;      // new image (insert, update)
  Row old_row;  // old image (update, delete)
};

/// Appenders used by the SQL executor while a transaction buffers its
/// mutations. The byte stream is the payload of a WAL transaction frame;
/// a persistent log's Recover replays it, a scratch log only carries it.
void AppendInsertRecord(const std::string& table, const Row& row,
                        std::string* out);
void AppendUpdateRecord(const std::string& table, const Row& old_row,
                        const Row& new_row, std::string* out);
void AppendDeleteRecord(const std::string& table, const Row& old_row,
                        std::string* out);

/// Decodes a full transaction payload. Fails with Protocol on any
/// malformed or trailing bytes (a frame passed its CRC, so damage here
/// means a codec bug, not disk corruption).
rlscommon::Status DecodeWalRecords(std::string_view payload,
                                   std::vector<WalRecord>* out);

/// Checkpoint snapshot codec: the live rows of every table, written to
/// the WAL's sidecar at recycle-wrap and replayed before the remaining
/// log frames on recovery. Rows only — the schema is recreated by the
/// store's InitSchema before Recover runs, so DDL is never logged.
struct TableSnapshot {
  std::string table;
  std::vector<Row> rows;
};

void EncodeSnapshot(const std::vector<TableSnapshot>& tables, std::string* out);
rlscommon::Status DecodeSnapshot(std::string_view payload,
                                 std::vector<TableSnapshot>* out);

}  // namespace rdb
