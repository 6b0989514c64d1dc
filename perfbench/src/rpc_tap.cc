#include "rpc_tap.h"

#include <cstdio>

#include "util.h"

namespace perfbench {

class RpcTap::Forwarder : public net::RpcHandler {
 public:
  Forwarder(RpcTap* tap, net::NodeId node, net::RpcHandler* inner)
      : tap_(tap), node_(node), inner_(inner) {}
  Response Handle(const std::string& method,
                  const std::string& payload) override {
    return tap_->Forward(inner_, node_, method, payload);
  }

 private:
  RpcTap* tap_;
  net::NodeId node_;
  net::RpcHandler* inner_;
};

RpcTap::RpcTap() = default;
RpcTap::~RpcTap() = default;

void RpcTap::Wrap(net::Transport& transport, net::NodeId node,
                  net::RpcHandler* handler) {
  forwarders_.push_back(std::make_unique<Forwarder>(this, node, handler));
  transport.Register(node, forwarders_.back().get());
}

void RpcTap::WrapCluster(core::PropellerCluster& cluster) {
  Wrap(cluster.transport(), core::PropellerCluster::kMasterId, &cluster.master());
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    core::IndexNode& node = cluster.index_node(i);
    Wrap(cluster.transport(), node.id(), &node);
  }
}

uint16_t RpcTap::MethodId(const std::string& method) {
  auto [it, fresh] =
      method_ids_.try_emplace(method, static_cast<uint16_t>(methods_.size()));
  if (fresh) methods_.push_back(method);
  return it->second;
}

// The cluster runs its default serial engine, so every tapped call happens
// on the benchmark's driving thread and a plain stack tracks nesting.
net::RpcHandler::Response RpcTap::Forward(net::RpcHandler* inner,
                                          net::NodeId node,
                                          const std::string& method,
                                          const std::string& payload) {
  Call call;
  call.op = op_;
  call.parent = stack_.empty() ? 0 : stack_.back().call + 1;
  call.method = MethodId(method);
  call.node = node;
  call.request_bytes = static_cast<uint32_t>(payload.size());
  const auto index = static_cast<uint32_t>(calls_.size());
  calls_.push_back(call);
  stack_.push_back(Frame{index, 0.0});

  const WallClock::time_point t0 = WallClock::now();
  net::RpcHandler::Response resp = inner->Handle(method, payload);
  const double wall = SecondsSince(t0);

  const Frame frame = stack_.back();
  stack_.pop_back();
  if (stack_.empty()) {
    op_handler_wall_s_ += wall;
  } else {
    stack_.back().nested_wall_s += wall;
  }
  Call& done = calls_[index];
  done.self_wall_s = wall - frame.nested_wall_s;
  done.sim_s = resp.cost.seconds();
  done.status = static_cast<uint16_t>(resp.status.code());
  done.response_bytes = static_cast<uint32_t>(resp.payload.size());
  return resp;
}

std::unordered_map<std::string, RpcTap::MethodTotals> RpcTap::Totals() const {
  std::unordered_map<std::string, MethodTotals> out;
  for (const Call& c : calls_) {
    MethodTotals& t = out[methods_[c.method]];
    ++t.calls;
    if (c.status != 0) ++t.failed;
    t.self_wall_s += c.self_wall_s;
    t.sim_s += c.sim_s;
    t.request_bytes += c.request_bytes;
    t.response_bytes += c.response_bytes;
  }
  return out;
}

bool RpcTap::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,op,parent,method,node,status,req_bytes,resp_bytes,self_wall_ns,sim_ns\n");
  for (size_t i = 0; i < calls_.size(); ++i) {
    const Call& c = calls_[i];
    std::fprintf(f, "%zu,%llu,%u,%s,%u,%u,%u,%u,%.0f,%.0f\n", i + 1,
                 static_cast<unsigned long long>(c.op), c.parent,
                 methods_[c.method].c_str(), c.node, c.status, c.request_bytes,
                 c.response_bytes, c.self_wall_s * 1e9, c.sim_s * 1e9);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
