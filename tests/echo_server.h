// Shared test fixture: an echo RPC server on any transport.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/rpc.h"

namespace net {

/// Echo RPC server listening on "echo"; opcode 900 sleeps `work` first.
struct EchoServer {
  explicit EchoServer(Transport* transport,
                      std::chrono::milliseconds work = std::chrono::milliseconds(0),
                      int workers = 0) {
    ServerOptions options;
    options.name = "echo";
    options.workers = workers;
    server = std::make_unique<RpcServer>(
        transport, "echo", options,
        [work](const gsi::AuthContext&, uint16_t opcode,
               const std::string& request, std::string* response) {
          if (opcode == 900 && work.count() > 0) std::this_thread::sleep_for(work);
          *response = request;
          return rlscommon::Status::Ok();
        });
    EXPECT_TRUE(server->Start().ok());
  }
  std::unique_ptr<RpcServer> server;
};

}  // namespace net
