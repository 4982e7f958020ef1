// Name corpora of the RLS performance benchmark.
//
// Every name is a pure function of (corpus, index[, replica]), so the
// benchmark's model of a catalog is just the corpus and the index range
// it preloaded: logical name i maps to target Pfn(corpus, i, 0).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline void AppendNumber(std::string* out, uint64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  *out += std::string_view(buf, static_cast<std::size_t>(end - buf));
}

/// Logical name, shaped like the LIGO frame names of the paper's §6
/// (about 50 bytes): "lfn://<corpus>/run-<i/4096>/f-<i>.gwf".
inline std::string Lfn(std::string_view corpus, uint64_t i) {
  std::string name;
  name.reserve(64);
  name += "lfn://";
  name += corpus;
  name += "/run-";
  AppendNumber(&name, i / 4096);
  name += "/f-";
  AppendNumber(&name, i);
  name += ".gwf";
  return name;
}

/// Target (physical) name of replica `replica` of logical name i.
inline std::string Pfn(std::string_view corpus, uint64_t i, uint32_t replica) {
  std::string name;
  name.reserve(80);
  name += "gsiftp://se";
  AppendNumber(&name, (i + replica) % 8);
  name += ".grid.example/";
  name += corpus;
  name += "/run-";
  AppendNumber(&name, i / 4096);
  name += "/f-";
  AppendNumber(&name, i);
  name += '.';
  AppendNumber(&name, replica);
  return name;
}

/// The LRC lookup statement LrcStore::QueryLogical runs (Fig. 3 schema).
inline constexpr const char* kPointJoinSql =
    "SELECT t_pfn.name FROM t_lfn"
    " JOIN t_map ON t_lfn.id = t_map.lfn_id"
    " JOIN t_pfn ON t_map.pfn_id = t_pfn.id"
    " WHERE t_lfn.name = ?";

}  // namespace perfbench
