// Multi-process D-FASTER on one box (the paper's deployment shape, scaled to
// processes instead of VMs): a coordinator process runs the metadata store +
// DPR finder behind a TCP service; each worker process runs a FASTER shard
// with a remote finder stub; the client talks to the workers over TCP and
// waits for a cross-process DPR commit.
//
//   ./build/examples/multiprocess                 # forks the whole topology
//   ./build/examples/multiprocess --role=coordinator --port=23450
//   ./build/examples/multiprocess --role=worker --id=0 --workers=2
//       [--finder=127.0.0.1:23450 --port=23451]
//   ./build/examples/multiprocess --role=client --workers=2
//       [--worker0=127.0.0.1:23451 --worker1=127.0.0.1:23452]
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/flags.h"
#include "dpr/finder_service.h"
#include "harness/cluster.h"

using namespace dpr;  // NOLINT — example brevity

namespace {

int RunCoordinator(uint16_t port) {
  MetadataStore metadata(std::make_unique<MemoryDevice>());
  if (!metadata.Recover().ok()) return 1;
  auto finder =
      MakeDprFinder({.kind = FinderKind::kApprox, .metadata = &metadata});
  DprFinderServer server(finder.get(), MakeTcpServer(port));
  if (!server.Start().ok()) return 1;
  finder->StartCoordinator(10000);
  fprintf(stderr, "[coordinator] serving DPR finder on %s\n",
          server.address().c_str());
  for (;;) SleepMillis(1000);  // killed by the parent
}

int RunWorker(WorkerId id, uint32_t num_workers, const std::string& finder,
              uint16_t port) {
  std::unique_ptr<RpcConnection> conn;
  // The coordinator may still be starting; retry the connect briefly.
  for (int attempt = 0;; ++attempt) {
    if (ConnectTcp(finder, &conn).ok()) break;
    if (attempt > 100) return 1;
    SleepMillis(20);
  }
  RemoteDprFinder remote_finder(std::move(conn));
  DFasterWorkerConfig config;
  config.id = id;
  config.num_workers = num_workers;
  config.dpr.finder = &remote_finder;
  config.dpr.checkpoint_interval_us = 50000;
  DFasterWorker worker(std::move(config));
  if (!worker.Start(MakeTcpServer(port)).ok()) return 1;
  fprintf(stderr, "[worker %u] serving on %s (pid %d)\n", id,
          worker.address().c_str(), getpid());
  for (;;) SleepMillis(1000);
}

int RunClient(const Flags& flags, uint32_t num_workers) {
  DFasterClientConfig config;
  config.num_workers = num_workers;
  config.batch_size = 8;
  config.window = 64;
  DFasterClient client(config);
  std::vector<std::string> addrs;
  for (uint32_t i = 0; i < num_workers; ++i) {
    addrs.push_back(flags.GetString("worker" + std::to_string(i), ""));
  }
  flags.RejectUnknown();
  for (uint32_t i = 0; i < num_workers; ++i) {
    const std::string& addr = addrs[i];
    std::unique_ptr<RpcConnection> conn;
    for (int attempt = 0;; ++attempt) {
      if (ConnectTcp(addr, &conn).ok()) break;
      if (attempt > 100) return 1;
      SleepMillis(20);
    }
    client.AddRemoteWorker(i, std::move(conn));
  }
  auto session = client.NewSession(getpid());
  for (uint64_t k = 0; k < 100; ++k) session->Upsert(k, k * 11);
  Status s = session->WaitForAll();
  printf("[client] 100 cross-process upserts completed: %s\n",
         s.ToString().c_str());
  s = session->WaitForCommit(20000);
  printf("[client] DPR commit across processes: %s (prefix %llu)\n",
         s.ToString().c_str(),
         static_cast<unsigned long long>(
             session->dpr().GetCommitPoint().prefix_end));
  uint64_t sum = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    session->Read(k, [&](KvResult r, uint64_t v) {
      if (r == KvResult::kOk) sum += v;  // resolved before WaitForAll returns
    });
  }
  (void)session->WaitForAll();
  printf("[client] readback checksum %llu (expected %llu)\n",
         static_cast<unsigned long long>(sum),
         static_cast<unsigned long long>(11 * 99 * 100 / 2));
  return s.ok() && sum == 11ull * 99 * 100 / 2 ? 0 : 1;
}

int RunDemo(const Flags& flags) {
  const auto base = static_cast<uint16_t>(flags.GetInt("base_port", 23450));
  flags.RejectUnknown();
  constexpr uint32_t kWorkers = 2;
  std::vector<pid_t> children;

  pid_t pid = fork();
  if (pid == 0) _exit(RunCoordinator(base));
  children.push_back(pid);

  for (uint32_t i = 0; i < kWorkers; ++i) {
    pid = fork();
    if (pid == 0) {
      _exit(RunWorker(i, kWorkers, "127.0.0.1:" + std::to_string(base),
                      static_cast<uint16_t>(base + 1 + i)));
    }
    children.push_back(pid);
  }

  // Parent acts as the client.
  DFasterClientConfig config;
  config.num_workers = kWorkers;
  config.batch_size = 8;
  config.window = 64;
  DFasterClient client(config);
  bool connected = true;
  for (uint32_t i = 0; i < kWorkers; ++i) {
    std::unique_ptr<RpcConnection> conn;
    bool ok = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (ConnectTcp("127.0.0.1:" + std::to_string(base + 1 + i), &conn)
              .ok()) {
        ok = true;
        break;
      }
      SleepMillis(20);
    }
    if (!ok) {
      connected = false;
      break;
    }
    client.AddRemoteWorker(i, std::move(conn));
  }

  int rc = 1;
  if (connected) {
    auto session = client.NewSession(1);
    for (uint64_t k = 0; k < 100; ++k) session->Upsert(k, k * 11);
    Status s = session->WaitForAll();
    printf("[client] upserts across %u worker processes: %s\n", kWorkers,
           s.ToString().c_str());
    s = session->WaitForCommit(20000);
    printf("[client] commit (coordinated by the finder process): %s\n",
           s.ToString().c_str());
    uint64_t sum = 0;
    for (uint64_t k = 0; k < 100; ++k) {
      session->Read(k, [&](KvResult r, uint64_t v) {
        if (r == KvResult::kOk) sum += v;
      });
    }
    (void)session->WaitForAll();
    rc = (s.ok() && sum == 11ull * 99 * 100 / 2) ? 0 : 1;
    printf("[client] readback %s\n", rc == 0 ? "verified" : "MISMATCH");
  } else {
    printf("[client] failed to connect to worker processes\n");
  }

  for (pid_t child : children) kill(child, SIGKILL);
  for (pid_t child : children) waitpid(child, nullptr, 0);
  printf("multiprocess demo done (rc=%d)\n", rc);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string role = flags.GetString("role", "demo");
  const auto num_workers =
      static_cast<uint32_t>(flags.GetInt("workers", 2));
  if (role == "coordinator") {
    const auto port = static_cast<uint16_t>(flags.GetInt("port", 23450));
    flags.RejectUnknown();
    return RunCoordinator(port);
  }
  if (role == "worker") {
    const auto id = static_cast<WorkerId>(flags.GetInt("id", 0));
    const std::string finder = flags.GetString("finder", "");
    const auto port = static_cast<uint16_t>(flags.GetInt("port", 23451));
    flags.RejectUnknown();
    return RunWorker(id, num_workers, finder, port);
  }
  if (role == "client") {
    return RunClient(flags, num_workers);
  }
  return RunDemo(flags);
}
