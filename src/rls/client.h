// RLS client API (paper §3.7, Table 1).
//
// LrcClient and RliClient wrap one RPC connection each; like the original
// C client, a client object is not thread-safe — the multi-threaded load
// drivers in bench/ create one client per thread. Every RLS call in
// src/rls, clients and servers alike, goes through Invoke<Op>.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "net/rpc.h"
#include "rls/protocol.h"
#include "rls/types.h"

namespace rls {

/// Options shared by both clients: those of their one RPC connection
/// (credential, link, identity, deadline, retry policy, metrics sink).
using ClientConfig = net::ClientOptions;

/// Issues one RLS call: encodes `request`, calls `Code` and decodes the
/// reply into `reply` (a null `reply` ignores the reply body). Both types
/// come from Code's row of the operation table, so a mismatched request
/// or reply does not compile.
template <Op Code>
rlscommon::Status Invoke(net::RpcClient& rpc, const RequestOf<Code>& request,
                         ReplyOf<Code>* reply = nullptr) {
  std::string payload, response;
  net::EncodeMessage(request, &payload);
  rlscommon::Status s = rpc.Call(Code, payload, &response);
  if (!s.ok() || reply == nullptr) return s;
  return net::DecodeMessage(response, reply);
}

/// What both clients share: the connection, liveness and introspection.
/// `Client` is the class Connect builds.
template <typename Client>
class ClientBase {
 public:
  static rlscommon::Status Connect(net::Transport* network, const std::string& address,
                                   const ClientConfig& config,
                                   std::unique_ptr<Client>* out);

  rlscommon::Status Ping();
  /// Full introspection snapshot: vitals plus every registry instrument.
  rlscommon::Status GetStats(GetStatsResponse* stats);
  /// Flight-recorder dump.
  rlscommon::Status GetTraces(const GetTracesRequest& filter,
                              GetTracesResponse* traces);

 protected:
  ClientBase() = default;

  std::unique_ptr<net::RpcClient> rpc_;
};

/// Client for a server's LRC role — every LRC operation of Table 1.
class LrcClient : public ClientBase<LrcClient> {
 public:
  // --- mapping management ---
  rlscommon::Status Create(const std::string& logical, const std::string& target);
  rlscommon::Status Add(const std::string& logical, const std::string& target);
  rlscommon::Status Delete(const std::string& logical, const std::string& target);
  rlscommon::Status BulkCreate(const std::vector<Mapping>& mappings,
                               BulkStatusResponse* result);
  rlscommon::Status BulkAdd(const std::vector<Mapping>& mappings,
                            BulkStatusResponse* result);
  rlscommon::Status BulkDelete(const std::vector<Mapping>& mappings,
                               BulkStatusResponse* result);

  // --- queries ---
  /// `offset`/`limit` page large result sets (limit 0 = unlimited).
  rlscommon::Status Query(const std::string& logical, std::vector<std::string>* targets,
                          uint32_t offset = 0, uint32_t limit = 0);
  rlscommon::Status QueryTarget(const std::string& target,
                                std::vector<std::string>* logicals,
                                uint32_t offset = 0, uint32_t limit = 0);
  rlscommon::Status BulkQuery(const std::vector<std::string>& logicals,
                              std::vector<Mapping>* mappings);
  /// Glob pattern over logical names ('*' / '?').
  rlscommon::Status WildcardQuery(const std::string& pattern, uint32_t limit,
                                  std::vector<Mapping>* mappings,
                                  uint32_t offset = 0);
  rlscommon::Status Exists(const std::string& logical);

  // --- attribute management ---
  rlscommon::Status AttributeDefine(const std::string& name, AttrObject object,
                                    AttrType type);
  rlscommon::Status AttributeUndefine(const std::string& name, AttrObject object);
  rlscommon::Status AttributeAdd(const std::string& object_name,
                                 const std::string& attr_name, AttrObject object,
                                 const AttrValue& value);
  rlscommon::Status AttributeModify(const std::string& object_name,
                                    const std::string& attr_name, AttrObject object,
                                    const AttrValue& value);
  rlscommon::Status AttributeDelete(const std::string& object_name,
                                    const std::string& attr_name, AttrObject object);
  rlscommon::Status AttributeQuery(const std::string& object_name, AttrObject object,
                                   std::vector<Attribute>* attributes);
  /// Objects whose `attr_name` compares `cmp` against `value`; results
  /// pair object names with the matching attribute values.
  rlscommon::Status AttributeSearch(const std::string& attr_name, AttrObject object,
                                    AttrCmp cmp, const AttrValue& value,
                                    std::vector<Attribute>* results);
  rlscommon::Status BulkAttributeAdd(const std::vector<AttrValueRequest>& items,
                                     BulkStatusResponse* result);
  rlscommon::Status BulkAttributeDelete(const std::vector<AttrValueRequest>& items,
                                        BulkStatusResponse* result);

  // --- LRC management ---
  rlscommon::Status RliList(std::vector<std::string>* rlis);
  rlscommon::Status RliAdd(const std::string& rli_address);
  rlscommon::Status RliRemove(const std::string& rli_address);
  /// Triggers an immediate soft-state update round.
  rlscommon::Status ForceUpdate();

 private:
  friend class ClientBase<LrcClient>;
  LrcClient() = default;
};

/// Client for a server's RLI role.
class RliClient : public ClientBase<RliClient> {
 public:
  /// LRC urls that (may) hold mappings for this logical name. Bloom-mode
  /// RLIs answer with ~1% false positives (paper §3.4).
  rlscommon::Status Query(const std::string& logical, std::vector<std::string>* lrcs);
  rlscommon::Status BulkQuery(const std::vector<std::string>& logicals,
                              std::vector<Mapping>* results);
  /// Glob query; Unsupported on Bloom-filter RLIs (paper §5.4).
  rlscommon::Status WildcardQuery(const std::string& pattern, uint32_t limit,
                                  std::vector<Mapping>* results);
  /// LRCs that update this RLI.
  rlscommon::Status LrcList(std::vector<std::string>* lrcs);

 private:
  friend class ClientBase<RliClient>;
  RliClient() = default;
};

}  // namespace rls
