#include "rls/client.h"

namespace rls {

using rlscommon::Status;

namespace {

net::ClientOptions ToRpcOptions(const ClientConfig& config) {
  net::ClientOptions options;
  options.credential = config.credential;
  options.link = config.link;
  options.identity = config.identity;
  options.call_timeout = config.call_timeout;
  options.retry = config.retry;
  options.retry_seed = config.retry_seed;
  options.metrics = config.metrics;
  return options;
}

/// The request and reply of operations that carry no body.
struct NoBody {
  NET_WIRE_MESSAGE(NoBody)
};

/// Every client operation: encodes `request`, calls `opcode` and decodes
/// the reply into `reply` (a null `reply` ignores the reply body).
template <typename Request, typename Reply = NoBody>
Status Invoke(net::RpcClient& rpc, uint16_t opcode, const Request& request,
              Reply* reply = nullptr) {
  std::string payload, response;
  request.Encode(&payload);
  Status s = rpc.Call(opcode, payload, &response);
  if (!s.ok() || reply == nullptr) return s;
  return Reply::Decode(response, reply);
}

}  // namespace

Status LrcClient::Connect(net::Transport* network, const std::string& address,
                          const ClientConfig& config, std::unique_ptr<LrcClient>* out) {
  std::unique_ptr<net::RpcClient> rpc;
  Status s = net::RpcClient::Connect(network, address, ToRpcOptions(config), &rpc);
  if (!s.ok()) return s;
  out->reset(new LrcClient(std::move(rpc)));
  return Status::Ok();
}

Status LrcClient::Create(const std::string& logical, const std::string& target) {
  return Invoke(*rpc_, kLrcCreate, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::Add(const std::string& logical, const std::string& target) {
  return Invoke(*rpc_, kLrcAdd, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::Delete(const std::string& logical, const std::string& target) {
  return Invoke(*rpc_, kLrcDelete, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::BulkCreate(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return Invoke(*rpc_, kLrcBulkCreate, MappingRequest{mappings}, result);
}

Status LrcClient::BulkAdd(const std::vector<Mapping>& mappings,
                          BulkStatusResponse* result) {
  return Invoke(*rpc_, kLrcBulkAdd, MappingRequest{mappings}, result);
}

Status LrcClient::BulkDelete(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return Invoke(*rpc_, kLrcBulkDelete, MappingRequest{mappings}, result);
}

Status LrcClient::Query(const std::string& logical, std::vector<std::string>* targets,
                        uint32_t offset, uint32_t limit) {
  StringListResponse reply;
  Status s = Invoke(*rpc_, kLrcQueryLfn, NameQueryRequest{logical, offset, limit},
                    &reply);
  if (s.ok()) *targets = std::move(reply.values);
  return s;
}

Status LrcClient::QueryTarget(const std::string& target,
                              std::vector<std::string>* logicals, uint32_t offset,
                              uint32_t limit) {
  StringListResponse reply;
  Status s = Invoke(*rpc_, kLrcQueryPfn, NameQueryRequest{target, offset, limit},
                    &reply);
  if (s.ok()) *logicals = std::move(reply.values);
  return s;
}

Status LrcClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* mappings) {
  MappingListResponse reply;
  Status s = Invoke(*rpc_, kLrcBulkQueryLfn, BulkQueryRequest{logicals}, &reply);
  if (s.ok()) *mappings = std::move(reply.mappings);
  return s;
}

Status LrcClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* mappings, uint32_t offset) {
  MappingListResponse reply;
  Status s = Invoke(*rpc_, kLrcWildcardQueryLfn,
                    NameQueryRequest{pattern, offset, limit}, &reply);
  if (s.ok()) *mappings = std::move(reply.mappings);
  return s;
}

Status LrcClient::Exists(const std::string& logical) {
  return Invoke(*rpc_, kLrcExists, NameQueryRequest{logical, 0, 0});
}

Status LrcClient::AttributeDefine(const std::string& name, AttrObject object,
                                  AttrType type) {
  return Invoke(*rpc_, kLrcAttrDefine, AttrDefineRequest{name, object, type});
}

Status LrcClient::AttributeUndefine(const std::string& name, AttrObject object) {
  return Invoke(*rpc_, kLrcAttrUndefine,
                AttrDefineRequest{name, object, AttrType::kString});
}

Status LrcClient::AttributeAdd(const std::string& object_name,
                               const std::string& attr_name, AttrObject object,
                               const AttrValue& value) {
  return Invoke(*rpc_, kLrcAttrAdd,
                AttrValueRequest{object_name, attr_name, object, value});
}

Status LrcClient::AttributeModify(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object,
                                  const AttrValue& value) {
  return Invoke(*rpc_, kLrcAttrModify,
                AttrValueRequest{object_name, attr_name, object, value});
}

Status LrcClient::AttributeDelete(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object) {
  return Invoke(*rpc_, kLrcAttrDelete,
                AttrValueRequest{object_name, attr_name, object, AttrValue()});
}

Status LrcClient::AttributeQuery(const std::string& object_name, AttrObject object,
                                 std::vector<Attribute>* attributes) {
  AttrListResponse reply;
  Status s = Invoke(*rpc_, kLrcAttrQueryObj,
                    AttrValueRequest{object_name, "", object, AttrValue()}, &reply);
  if (s.ok()) *attributes = std::move(reply.attributes);
  return s;
}

Status LrcClient::AttributeSearch(const std::string& attr_name, AttrObject object,
                                  AttrCmp cmp, const AttrValue& value,
                                  std::vector<Attribute>* results) {
  AttrListResponse reply;
  Status s = Invoke(*rpc_, kLrcAttrSearch,
                    AttrSearchRequest{attr_name, object, cmp, value}, &reply);
  if (s.ok()) *results = std::move(reply.attributes);
  return s;
}

Status LrcClient::BulkAttributeAdd(const std::vector<AttrValueRequest>& items,
                                   BulkStatusResponse* result) {
  return Invoke(*rpc_, kLrcBulkAttrAdd, BulkAttrRequest{items}, result);
}

Status LrcClient::BulkAttributeDelete(const std::vector<AttrValueRequest>& items,
                                      BulkStatusResponse* result) {
  return Invoke(*rpc_, kLrcBulkAttrDelete, BulkAttrRequest{items}, result);
}

Status LrcClient::RliList(std::vector<std::string>* rlis) {
  StringListResponse reply;
  Status s = Invoke(*rpc_, kLrcRliList, NoBody{}, &reply);
  if (s.ok()) *rlis = std::move(reply.values);
  return s;
}

Status LrcClient::RliAdd(const std::string& rli_address) {
  return Invoke(*rpc_, kLrcRliAdd, NameQueryRequest{rli_address, 0, 0});
}

Status LrcClient::RliRemove(const std::string& rli_address) {
  return Invoke(*rpc_, kLrcRliRemove, NameQueryRequest{rli_address, 0, 0});
}

Status LrcClient::ForceUpdate() { return Invoke(*rpc_, kLrcForceUpdate, NoBody{}); }

Status LrcClient::Ping() { return Invoke(*rpc_, kPing, NoBody{}); }

Status LrcClient::GetStats(GetStatsResponse* stats) {
  return Invoke(*rpc_, kServerGetStats, NoBody{}, stats);
}

Status LrcClient::GetTraces(const GetTracesRequest& filter,
                            GetTracesResponse* traces) {
  return Invoke(*rpc_, kServerGetTraces, filter, traces);
}

Status RliClient::Connect(net::Transport* network, const std::string& address,
                          const ClientConfig& config, std::unique_ptr<RliClient>* out) {
  std::unique_ptr<net::RpcClient> rpc;
  Status s = net::RpcClient::Connect(network, address, ToRpcOptions(config), &rpc);
  if (!s.ok()) return s;
  out->reset(new RliClient(std::move(rpc)));
  return Status::Ok();
}

Status RliClient::Query(const std::string& logical, std::vector<std::string>* lrcs) {
  StringListResponse reply;
  Status s = Invoke(*rpc_, kRliQueryLfn, NameQueryRequest{logical, 0, 0}, &reply);
  if (s.ok()) *lrcs = std::move(reply.values);
  return s;
}

Status RliClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* results) {
  MappingListResponse reply;
  Status s = Invoke(*rpc_, kRliBulkQuery, BulkQueryRequest{logicals}, &reply);
  if (s.ok()) *results = std::move(reply.mappings);
  return s;
}

Status RliClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* results) {
  MappingListResponse reply;
  Status s = Invoke(*rpc_, kRliWildcardQuery, NameQueryRequest{pattern, 0, limit},
                    &reply);
  if (s.ok()) *results = std::move(reply.mappings);
  return s;
}

Status RliClient::LrcList(std::vector<std::string>* lrcs) {
  StringListResponse reply;
  Status s = Invoke(*rpc_, kRliLrcList, NoBody{}, &reply);
  if (s.ok()) *lrcs = std::move(reply.values);
  return s;
}

Status RliClient::Ping() { return Invoke(*rpc_, kPing, NoBody{}); }

Status RliClient::GetStats(GetStatsResponse* stats) {
  return Invoke(*rpc_, kServerGetStats, NoBody{}, stats);
}

Status RliClient::GetTraces(const GetTracesRequest& filter,
                            GetTracesResponse* traces) {
  return Invoke(*rpc_, kServerGetTraces, filter, traces);
}

}  // namespace rls
