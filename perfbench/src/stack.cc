// The serving stack under test: net::RpcServer over the workload's
// runtime. For the replicated workload, three ReplicatedNodes joined by
// a SocketTransport with the front door on n0.

#include <utility>

#include "perfbench.h"

namespace perfbench {

sws::rt::RuntimeOptions BaseRuntimeOptions(const Workload& workload,
                                           const std::string& durable_dir) {
  sws::rt::RuntimeOptions options;
  options.num_workers = kServerWorkers;
  options.num_shards = kServerShards;
  options.queue_capacity = 1u << 14;
  // Durability keeps its defaults (FsyncPolicy::kBatch): input appends
  // batch-synced, every outcome synced before its ack.
  if (workload.durable) options.durability.dir = durable_dir;
  return options;
}

Stack::Stack(const Workload* workload, std::string scratch_dir)
    : workload_(workload), scratch_dir_(std::move(scratch_dir)) {}

Stack::~Stack() { Stop(); }

sws::core::Status Stack::Start() {
  if (!workload_->replicated) {
    runtime_ = std::make_unique<sws::rt::ServiceRuntime>(
        workload_->sws.get(), workload_->seed_db,
        BaseRuntimeOptions(*workload_, scratch_dir_ + "/n0"));
    if (!runtime_->init_status().ok()) return runtime_->init_status();
  } else {
    group_ = std::make_unique<sws::replication::ReplicaGroup>(
        std::vector<std::string>{"n0", "n1", "n2"});
    transport_ = std::make_unique<sws::net::SocketTransport>(nullptr);
    for (size_t i = 0; i < group_->nodes().size(); ++i) {
      sws::replication::NodeOptions options;
      options.id = group_->nodes()[i];
      options.dir = scratch_dir_ + "/" + options.id;
      options.replication.replicas = 2;
      options.replication.ack_quorum = 1;
      // Only n0 serves clients; followers need a worker for the sessions
      // they would own after a promotion, which never happens here.
      options.runtime = BaseRuntimeOptions(*workload_, options.dir);
      if (i > 0) {
        options.runtime.num_workers = 1;
        options.runtime.num_shards = 2;
      }
      nodes_.push_back(std::make_unique<sws::replication::ReplicatedNode>(
          options, workload_->sws.get(), workload_->seed_db, group_.get(),
          transport_.get()));
    }
    for (auto& node : nodes_) {
      sws::core::Status started = node->Start();
      if (!started.ok()) return started;
    }
  }
  sws::net::RpcServer::Options server_options;
  server_ = std::make_unique<sws::net::RpcServer>(runtime().get(),
                                                  server_options);
  return server_->Start();
}

std::shared_ptr<sws::rt::ServiceRuntime> Stack::runtime() const {
  if (!nodes_.empty()) return nodes_[0]->runtime_snapshot();
  // Non-owning view of the standalone runtime.
  return std::shared_ptr<sws::rt::ServiceRuntime>(
      std::shared_ptr<sws::rt::ServiceRuntime>(), runtime_.get());
}

std::vector<std::string> Stack::durable_dirs() const {
  std::vector<std::string> dirs;
  if (!workload_->durable) return dirs;
  for (const char* id : {"n0", "n1", "n2"}) {
    dirs.push_back(scratch_dir_ + "/" + id);
    if (!workload_->replicated) break;
  }
  return dirs;
}

void Stack::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (server_) server_->Stop();
  if (runtime_) runtime_->Shutdown();
  for (auto& node : nodes_) node->Stop();
}

}  // namespace perfbench
