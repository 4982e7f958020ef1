#include "rls/client.h"

namespace rls {

using rlscommon::Status;

template <typename Client>
Status ClientBase<Client>::Connect(net::Transport* network, const std::string& address,
                                   const ClientConfig& config,
                                   std::unique_ptr<Client>* out) {
  std::unique_ptr<Client> client(new Client());
  Status s = net::RpcClient::Connect(network, address, config, &client->rpc_);
  if (s.ok()) *out = std::move(client);
  return s;
}

template <typename Client>
Status ClientBase<Client>::Ping() {
  return Invoke<kPing>(*rpc_, {});
}

template <typename Client>
Status ClientBase<Client>::GetStats(GetStatsResponse* stats) {
  return Invoke<kServerGetStats>(*rpc_, {}, stats);
}

template <typename Client>
Status ClientBase<Client>::GetTraces(const GetTracesRequest& filter,
                                     GetTracesResponse* traces) {
  return Invoke<kServerGetTraces>(*rpc_, filter, traces);
}

template class ClientBase<LrcClient>;
template class ClientBase<RliClient>;

Status LrcClient::Create(const std::string& logical, const std::string& target) {
  return Invoke<kLrcCreate>(*rpc_, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::Add(const std::string& logical, const std::string& target) {
  return Invoke<kLrcAdd>(*rpc_, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::Delete(const std::string& logical, const std::string& target) {
  return Invoke<kLrcDelete>(*rpc_, MappingRequest{{Mapping{logical, target}}});
}

Status LrcClient::BulkCreate(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return Invoke<kLrcBulkCreate>(*rpc_, MappingRequest{mappings}, result);
}

Status LrcClient::BulkAdd(const std::vector<Mapping>& mappings,
                          BulkStatusResponse* result) {
  return Invoke<kLrcBulkAdd>(*rpc_, MappingRequest{mappings}, result);
}

Status LrcClient::BulkDelete(const std::vector<Mapping>& mappings,
                             BulkStatusResponse* result) {
  return Invoke<kLrcBulkDelete>(*rpc_, MappingRequest{mappings}, result);
}

Status LrcClient::Query(const std::string& logical, std::vector<std::string>* targets,
                        uint32_t offset, uint32_t limit) {
  StringListResponse reply;
  Status s =
      Invoke<kLrcQueryLfn>(*rpc_, NameQueryRequest{logical, offset, limit}, &reply);
  if (s.ok()) *targets = std::move(reply.values);
  return s;
}

Status LrcClient::QueryTarget(const std::string& target,
                              std::vector<std::string>* logicals, uint32_t offset,
                              uint32_t limit) {
  StringListResponse reply;
  Status s =
      Invoke<kLrcQueryPfn>(*rpc_, NameQueryRequest{target, offset, limit}, &reply);
  if (s.ok()) *logicals = std::move(reply.values);
  return s;
}

Status LrcClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* mappings) {
  MappingListResponse reply;
  Status s = Invoke<kLrcBulkQueryLfn>(*rpc_, BulkQueryRequest{logicals}, &reply);
  if (s.ok()) *mappings = std::move(reply.mappings);
  return s;
}

Status LrcClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* mappings, uint32_t offset) {
  MappingListResponse reply;
  Status s = Invoke<kLrcWildcardQueryLfn>(
      *rpc_, NameQueryRequest{pattern, offset, limit}, &reply);
  if (s.ok()) *mappings = std::move(reply.mappings);
  return s;
}

Status LrcClient::Exists(const std::string& logical) {
  return Invoke<kLrcExists>(*rpc_, NameQueryRequest{logical, 0, 0});
}

Status LrcClient::AttributeDefine(const std::string& name, AttrObject object,
                                  AttrType type) {
  return Invoke<kLrcAttrDefine>(*rpc_, AttrDefineRequest{name, object, type});
}

Status LrcClient::AttributeUndefine(const std::string& name, AttrObject object) {
  return Invoke<kLrcAttrUndefine>(*rpc_,
                                  AttrDefineRequest{name, object, AttrType::kString});
}

Status LrcClient::AttributeAdd(const std::string& object_name,
                               const std::string& attr_name, AttrObject object,
                               const AttrValue& value) {
  return Invoke<kLrcAttrAdd>(*rpc_,
                             AttrValueRequest{object_name, attr_name, object, value});
}

Status LrcClient::AttributeModify(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object,
                                  const AttrValue& value) {
  return Invoke<kLrcAttrModify>(*rpc_,
                                AttrValueRequest{object_name, attr_name, object, value});
}

Status LrcClient::AttributeDelete(const std::string& object_name,
                                  const std::string& attr_name, AttrObject object) {
  return Invoke<kLrcAttrDelete>(
      *rpc_, AttrValueRequest{object_name, attr_name, object, AttrValue()});
}

Status LrcClient::AttributeQuery(const std::string& object_name, AttrObject object,
                                 std::vector<Attribute>* attributes) {
  AttrListResponse reply;
  Status s = Invoke<kLrcAttrQueryObj>(
      *rpc_, AttrValueRequest{object_name, "", object, AttrValue()}, &reply);
  if (s.ok()) *attributes = std::move(reply.attributes);
  return s;
}

Status LrcClient::AttributeSearch(const std::string& attr_name, AttrObject object,
                                  AttrCmp cmp, const AttrValue& value,
                                  std::vector<Attribute>* results) {
  AttrListResponse reply;
  Status s = Invoke<kLrcAttrSearch>(
      *rpc_, AttrSearchRequest{attr_name, object, cmp, value}, &reply);
  if (s.ok()) *results = std::move(reply.attributes);
  return s;
}

Status LrcClient::BulkAttributeAdd(const std::vector<AttrValueRequest>& items,
                                   BulkStatusResponse* result) {
  return Invoke<kLrcBulkAttrAdd>(*rpc_, BulkAttrRequest{items}, result);
}

Status LrcClient::BulkAttributeDelete(const std::vector<AttrValueRequest>& items,
                                      BulkStatusResponse* result) {
  return Invoke<kLrcBulkAttrDelete>(*rpc_, BulkAttrRequest{items}, result);
}

Status LrcClient::RliList(std::vector<std::string>* rlis) {
  StringListResponse reply;
  Status s = Invoke<kLrcRliList>(*rpc_, {}, &reply);
  if (s.ok()) *rlis = std::move(reply.values);
  return s;
}

Status LrcClient::RliAdd(const std::string& rli_address) {
  return Invoke<kLrcRliAdd>(*rpc_, NameQueryRequest{rli_address, 0, 0});
}

Status LrcClient::RliRemove(const std::string& rli_address) {
  return Invoke<kLrcRliRemove>(*rpc_, NameQueryRequest{rli_address, 0, 0});
}

Status LrcClient::ForceUpdate() { return Invoke<kLrcForceUpdate>(*rpc_, {}); }

Status RliClient::Query(const std::string& logical, std::vector<std::string>* lrcs) {
  StringListResponse reply;
  Status s = Invoke<kRliQueryLfn>(*rpc_, NameQueryRequest{logical, 0, 0}, &reply);
  if (s.ok()) *lrcs = std::move(reply.values);
  return s;
}

Status RliClient::BulkQuery(const std::vector<std::string>& logicals,
                            std::vector<Mapping>* results) {
  MappingListResponse reply;
  Status s = Invoke<kRliBulkQuery>(*rpc_, BulkQueryRequest{logicals}, &reply);
  if (s.ok()) *results = std::move(reply.mappings);
  return s;
}

Status RliClient::WildcardQuery(const std::string& pattern, uint32_t limit,
                                std::vector<Mapping>* results) {
  MappingListResponse reply;
  Status s =
      Invoke<kRliWildcardQuery>(*rpc_, NameQueryRequest{pattern, 0, limit}, &reply);
  if (s.ok()) *results = std::move(reply.mappings);
  return s;
}

Status RliClient::LrcList(std::vector<std::string>* lrcs) {
  StringListResponse reply;
  Status s = Invoke<kRliLrcList>(*rpc_, {}, &reply);
  if (s.ok()) *lrcs = std::move(reply.values);
  return s;
}

}  // namespace rls
