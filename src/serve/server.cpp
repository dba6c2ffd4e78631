#include "serve/server.h"

namespace vf::serve {

namespace {

ModelRegistry one_model(VirtualFlowEngine& engine, const Dataset& request_pool,
                        const ServerConfig& config) {
  ModelConfig mc;
  mc.name = "";  // sole model: metrics under "serve.", spans at model -1
  mc.queue_capacity = config.queue_capacity;
  mc.batch = config.batch;
  mc.deadline_s = config.deadline_s;
  mc.shed_expired = config.shed_expired;
  ModelRegistry registry;
  registry.add(engine, request_pool, mc);
  return registry;
}

ColocationConfig device_set(const ServerConfig& config) {
  ColocationConfig cc;
  cc.elastic = config.elastic;
  cc.continuous = config.continuous;
  cc.stream = config.stream;
  return cc;
}

}  // namespace

Server::Server(VirtualFlowEngine& engine, const Dataset& request_pool,
               ServerConfig config)
    : registry_(one_model(engine, request_pool, config)),
      server_(registry_, device_set(config)) {}

void Server::replay(const std::vector<InferRequest>& trace) {
  server_.replay_traces({trace});
}

void Server::begin(const std::vector<InferRequest>& trace) {
  server_.begin_traces({trace});
}

}  // namespace vf::serve
