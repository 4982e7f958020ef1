// The opcode table (rls::kOpTable) is the one place an operation's name
// and privilege are written; the server's role check, its ACL check and
// the admission lane and cost all follow from the privilege. These tests
// walk every row, so a wrong row cannot ship unnoticed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/rpc.h"
#include "rls/admission.h"
#include "rls/client.h"
#include "rls/protocol.h"
#include "rls/rls_server.h"

namespace rls {
namespace {

using gsi::Privilege;
using rlscommon::ErrorCode;

constexpr Privilege kPrivileges[] = {Privilege::kLrcRead,  Privilege::kLrcWrite,
                                     Privilege::kRliRead,  Privilege::kRliWrite,
                                     Privilege::kAdmin,    Privilege::kStats};

std::string Dn(const std::string& who, Privilege p) {
  return "/CN=" + who + "-" + std::string(gsi::PrivilegeName(p));
}

// Invoke<Op> takes its request and reply types from Op's row: the row's
// types compile, any other type does not.
template <Op Code, typename Request>
concept InvokeTakes = requires(net::RpcClient& rpc, const Request& request) {
  Invoke<Code>(rpc, request);
};
template <Op Code, typename Reply>
concept InvokeFills = requires(net::RpcClient& rpc, Reply* reply) {
  Invoke<Code>(rpc, RequestOf<Code>{}, reply);
};
static_assert(InvokeTakes<kLrcQueryLfn, NameQueryRequest>);
static_assert(!InvokeTakes<kLrcQueryLfn, MappingRequest>);
static_assert(InvokeFills<kLrcQueryLfn, StringListResponse>);
static_assert(!InvokeFills<kLrcQueryLfn, MappingListResponse>);

TEST(OpTableTest, RowsNameTheirOpcodes) {
  std::set<std::string_view> names;
  for (const OpSpec& op : kOpTable) {
    EXPECT_EQ(FindOp(op.opcode), &op);
    EXPECT_EQ(OpName(op.opcode), op.name);
    EXPECT_TRUE(names.insert(op.name).second) << "duplicate name " << op.name;
  }
  // Retired (2, 3), never assigned, and past the end all render alike.
  for (uint16_t opcode : {0, 2, 3, 6, 65, 255, 256, 9999, 65535}) {
    EXPECT_EQ(FindOp(opcode), nullptr) << opcode;
    EXPECT_EQ(OpName(opcode), "unknown") << opcode;
  }
}

// A DN granted only the row's privilege is never denied; a DN granted
// every other privilege always is; ping needs no grant at all.
TEST(OpTableTest, AuthorizationMatrix) {
  gsi::Acl acl;
  for (Privilege p : kPrivileges) {
    ASSERT_TRUE(acl.AddEntry(Dn("only", p), {p}).ok());
    std::vector<Privilege> others;
    for (Privilege q : kPrivileges) {
      if (q != p) others.push_back(q);
    }
    ASSERT_TRUE(acl.AddEntry(Dn("all-but", p), others).ok());
  }
  net::InProcTransport network;
  dbapi::Environment env;
  RlsServerConfig config;
  config.address = "optable:authz";
  config.lrc.enabled = true;
  config.lrc.dsn = "mysql://optable_lrc";
  config.rli.enabled = true;
  config.rli.dsn = "mysql://optable_rli";
  config.auth = gsi::AuthManager::Secured({}, std::move(acl), std::chrono::microseconds(0));
  ASSERT_TRUE(env.CreateDatabase(config.lrc.dsn).ok());
  ASSERT_TRUE(env.CreateDatabase(config.rli.dsn).ok());
  RlsServer server(&network, config, &env);
  ASSERT_TRUE(server.Start().ok());

  std::map<std::string, std::unique_ptr<net::RpcClient>> clients;
  auto call = [&](const std::string& dn, uint16_t opcode) {
    std::unique_ptr<net::RpcClient>& client = clients[dn];
    if (!client) {
      net::ClientOptions options;
      options.credential.dn = dn;
      EXPECT_TRUE(net::RpcClient::Connect(&network, config.address, options, &client).ok());
    }
    std::string response;
    return client->Call(opcode, "", &response).code();
  };

  for (const OpSpec& op : kOpTable) {
    if (!op.privilege) {
      EXPECT_EQ(call("/CN=nobody", op.opcode), ErrorCode::kOk) << op.name;
      continue;
    }
    EXPECT_NE(call(Dn("only", *op.privilege), op.opcode), ErrorCode::kPermissionDenied)
        << op.name;
    EXPECT_EQ(call(Dn("all-but", *op.privilege), op.opcode),
              ErrorCode::kPermissionDenied)
        << op.name;
  }
  clients.clear();
  server.Stop();
}

// Admin, stats, soft-state (rli_write) and ping rows ride the priority
// lane free of charge; every other row costs exactly privilege_cost[P].
TEST(OpTableTest, AdmissionMatrix) {
  rlscommon::ManualClock clock;  // never advanced: buckets do not refill
  ServerLimits limits;
  limits.per_dn_rate = 1;
  // Each cost is more than twice the next lower one, so "admitted once
  // with burst == cost, then shed" holds only for the exact cost.
  limits.privilege_cost = {1, 3, 9, 27, 81, 243};
  auto cost_of = [&](Privilege p) {
    return limits.privilege_cost[static_cast<std::size_t>(p)];
  };
  const gsi::AuthContext tenant{true, "/CN=tenant", ""};

  for (const OpSpec& op : kOpTable) {
    const bool protected_row =
        !op.privilege || *op.privilege == Privilege::kAdmin ||
        *op.privilege == Privilege::kStats || *op.privilege == Privilege::kRliWrite;
    ServerLimits row_limits = limits;
    if (protected_row) {
      // Drain the bucket with one read, and check that it is empty.
      row_limits.per_dn_burst = cost_of(Privilege::kLrcRead);
      obs::Registry registry;
      AdmissionController admission(row_limits, &clock, &registry);
      ASSERT_TRUE(admission.Admit(tenant, kLrcQueryLfn).status.ok());
      ASSERT_FALSE(admission.Admit(tenant, kLrcQueryLfn).status.ok());
      const net::AdmitDecision decision = admission.Admit(tenant, op.opcode);
      EXPECT_TRUE(decision.status.ok()) << op.name;
      EXPECT_TRUE(decision.priority) << op.name;
      continue;
    }
    row_limits.per_dn_burst = cost_of(*op.privilege);
    obs::Registry registry;
    AdmissionController admission(row_limits, &clock, &registry);
    const net::AdmitDecision first = admission.Admit(tenant, op.opcode);
    EXPECT_TRUE(first.status.ok()) << op.name;
    EXPECT_FALSE(first.priority) << op.name;
    const net::AdmitDecision second = admission.Admit(tenant, op.opcode);
    EXPECT_EQ(second.status.code(), ErrorCode::kUnavailable) << op.name;
    EXPECT_EQ(obs::SampleValue(registry.TakeSnapshot().samples, "rpc_shed_total",
                               obs::Label("reason", "rate_limit")),
              1)
        << op.name;
  }

  // An opcode with no row is charged as a normal-lane read.
  ServerLimits unknown_limits = limits;
  unknown_limits.per_dn_burst = cost_of(Privilege::kLrcRead);
  obs::Registry registry;
  AdmissionController admission(unknown_limits, &clock, &registry);
  const net::AdmitDecision first = admission.Admit(tenant, 2);
  EXPECT_TRUE(first.status.ok());
  EXPECT_FALSE(first.priority);
  EXPECT_FALSE(admission.Admit(tenant, 2).status.ok());
}

}  // namespace
}  // namespace rls
