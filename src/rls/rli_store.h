// Replica Location Index state.
//
// Two back ends, exactly as in RLS 2.0.9 (paper §3.1/§3.4):
//   * RliRelationalStore — used when the RLI receives full, uncompressed
//     soft-state updates. Holds {LN, LRC, updatetime} associations in the
//     three-table schema of Fig. 3 (right side). Soft state expires via
//     ExpireOlderThan, driven by the server's expire thread, which
//     sleeps until OldestStamp() comes due.
//   * RliBloomStore — used when the RLI receives Bloom-filter updates:
//     "no database is used ... all Bloom filters are stored in memory".
//     Queries hash the logical name once and probe every resident filter,
//     which is why query rates drop as the number of LRC filters grows
//     (paper Fig. 10). The filters sit in one url-sorted array under one
//     shared_mutex. A query takes the filters in batches of 64: it reads
//     the first probed bit of each before it reads any filter's others,
//     so their cache misses overlap, and only a filter whose first bit
//     is set goes on to its other bits.
#pragma once

#include <chrono>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/clock.h"
#include "common/error.h"
#include "dbapi/pool.h"
#include "rls/types.h"

namespace rls {

class RliRelationalStore {
 public:
  static rlscommon::Status Create(dbapi::Environment& env, const std::string& dsn,
                                  std::unique_ptr<RliRelationalStore>* out);

  /// Registers/refreshes the association {lfn -> lrc_url} with timestamp
  /// `now_micros`. One transaction per call.
  rlscommon::Status Upsert(const std::string& lfn, const std::string& lrc_url,
                           int64_t now_micros);

  /// Chunk form: one transaction for the whole batch (what the server
  /// does per received update chunk).
  rlscommon::Status UpsertBatch(const std::vector<std::string>& lfns,
                                const std::string& lrc_url, int64_t now_micros);

  /// Drops the association (incremental update "removed" entries).
  rlscommon::Status Remove(const std::string& lfn, const std::string& lrc_url);

  /// LRC urls that may hold mappings for `lfn`.
  rlscommon::Status Query(const std::string& lfn, std::vector<std::string>* lrcs) const;

  /// Glob query over logical names -> {lfn, lrc} pairs. Supported here,
  /// impossible on the Bloom store.
  rlscommon::Status WildcardQuery(const std::string& pattern, uint32_t limit,
                                  std::vector<Mapping>* out) const;

  rlscommon::Status ListLrcs(std::vector<std::string>* out) const;

  /// Deletes associations with updatetime <= cutoff (expire thread).
  /// Orphaned logical-name rows are garbage collected.
  rlscommon::Status ExpireOlderThan(int64_t cutoff_micros, uint64_t* removed);

  /// The oldest association's updatetime; false when there is none.
  bool OldestStamp(int64_t* micros) const;

  uint64_t AssociationCount() const;
  uint64_t LogicalNameCount() const;

  dbapi::ConnectionPool& pool() const { return pool_; }

 private:
  RliRelationalStore(dbapi::Environment& env, const std::string& dsn)
      : pool_(env, dsn) {}

  rlscommon::Status InitSchema();

  mutable dbapi::ConnectionPool pool_;
  // Upserts run together; Remove and ExpireOlderThan, which delete the
  // logical-name rows no association references, run alone, or one could
  // delete the row an upsert has just looked up and is about to reference.
  std::shared_mutex write_mu_;
};

class RliBloomStore {
 public:
  explicit RliBloomStore(rlscommon::Clock* clock = rlscommon::SystemClock::Instance())
      : clock_(clock) {}

  /// Stores (replaces) the summary filter for one LRC.
  void StoreFilter(const std::string& lrc_url, bloom::BloomFilter filter);

  /// LRC urls whose filter claims `lfn`, in url order (false positives
  /// possible at the configured ~1% rate). Replaces `lrcs`' contents;
  /// NotFound when no filter claims the name.
  rlscommon::Status Query(const std::string& lfn, std::vector<std::string>* lrcs) const;

  rlscommon::Status ListLrcs(std::vector<std::string>* out) const;

  /// Drops filters last refreshed `max_age` or more ago; returns the
  /// number dropped.
  uint64_t ExpireOlderThan(rlscommon::Duration max_age);

  /// When the least recently refreshed filter arrived; false when none.
  bool OldestStamp(rlscommon::TimePoint* received) const;

  std::size_t filter_count() const;

  /// Total bits across resident filters (memory footprint reporting).
  uint64_t TotalFilterBits() const;

 private:
  struct Entry {
    std::string url;
    bloom::BloomFilter filter;
    rlscommon::TimePoint received;
  };

  rlscommon::Clock* clock_;
  mutable std::shared_mutex mu_;
  std::vector<Entry> entries_;  // sorted by url
};

}  // namespace rls
