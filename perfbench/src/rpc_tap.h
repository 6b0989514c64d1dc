// RPC-layer timing from outside the program: a forwarding RpcHandler is
// registered, through the public Transport::Register, in front of every
// node's own handler.  It passes the method and payload through untouched
// and returns the node's response unchanged, recording for each call its
// wall self time (nested RPCs subtracted), the handler's simulated cost,
// payload bytes and status.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster.h"
#include "net/transport.h"
#include "util.h"

namespace perfbench {

class RpcTap {
 public:
  struct Call {
    uint64_t op = 0;        // benchmark op the call belongs to
    uint32_t parent = 0;    // enclosing tapped call (1-based index), 0 = none
    uint16_t method = 0;    // index into the method names
    uint16_t status = 0;    // propeller::StatusCode
    uint32_t node = 0;
    uint32_t request_bytes = 0;
    uint32_t response_bytes = 0;
    double self_wall_s = 0;
    double sim_s = 0;
  };
  struct MethodTotals {
    uint64_t calls = 0;
    uint64_t failed = 0;
    double self_wall_s = 0;
    double sim_s = 0;
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
  };

  RpcTap();
  ~RpcTap();
  RpcTap(const RpcTap&) = delete;
  RpcTap& operator=(const RpcTap&) = delete;

  // Registers a forwarding handler in front of `handler` under `node`.
  void Wrap(net::Transport& transport, net::NodeId node,
            net::RpcHandler* handler);
  // Wraps the master and every index node of `cluster`.
  void WrapCluster(core::PropellerCluster& cluster);

  // Starts attributing calls to benchmark op `op`.
  void BeginOp(uint64_t op) {
    op_ = op;
    op_handler_wall_s_ = 0;
  }
  // Wall time spent inside top-level handlers since BeginOp.
  double OpHandlerWall() const { return op_handler_wall_s_; }

  const std::vector<Call>& calls() const { return calls_; }
  // Totals per method over every recorded call.
  std::unordered_map<std::string, MethodTotals> Totals() const;

  // Writes every call as one CSV row (header first).
  bool WriteCsv(const std::string& path) const;

 private:
  class Forwarder;
  net::RpcHandler::Response Forward(net::RpcHandler* inner, net::NodeId node,
                                    const std::string& method,
                                    const std::string& payload);
  uint16_t MethodId(const std::string& method);

  std::vector<std::unique_ptr<Forwarder>> forwarders_;
  std::vector<Call> calls_;
  std::vector<std::string> methods_;
  std::unordered_map<std::string, uint16_t> method_ids_;
  uint64_t op_ = 0;
  double op_handler_wall_s_ = 0;
  // Open calls on the (single) driving thread: index into calls_ and the
  // wall time their nested tapped calls took.
  struct Frame {
    uint32_t call;
    double nested_wall_s;
  };
  std::vector<Frame> stack_;
};

}  // namespace perfbench
