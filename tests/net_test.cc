#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/sync.h"
#include "net/event_loop.h"
#include "net/inmemory_net.h"
#include "net/tcp_net.h"

namespace dpr {
namespace {

class EchoFixture {
 public:
  static void Echo(Slice request, std::string* response) {
    response->assign(request.data(), request.size());
    response->append("!");
  }
};

TEST(InMemoryNetTest, RequestResponse) {
  InMemoryNetwork net;
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  std::string response;
  ASSERT_TRUE(conn->Call("hello", &response).ok());
  EXPECT_EQ(response, "hello!");
  server->Stop();
}

TEST(InMemoryNetTest, UnknownEndpointFails) {
  InMemoryNetwork net;
  auto conn = net.Connect("nope");
  std::string response;
  EXPECT_TRUE(conn->Call("x", &response).IsUnavailable());
}

TEST(InMemoryNetTest, ManyConcurrentCalls) {
  InMemoryNetwork net({.server_threads = 4});
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  std::atomic<int> done{0};
  constexpr int kCalls = 500;
  Mutex mu;
  CondVar cv;
  for (int i = 0; i < kCalls; ++i) {
    conn->CallAsync("m" + std::to_string(i), [&](Status s, Slice resp) {
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(resp.view().back(), '!');
      if (done.fetch_add(1) + 1 == kCalls) cv.NotifyAll();
    });
  }
  MutexLock lock(mu);
  ASSERT_TRUE(cv.WaitFor(mu, std::chrono::seconds(10),
                         [&] { return done.load() == kCalls; }));
  server->Stop();
}

TEST(InMemoryNetTest, LatencyInjection) {
  InMemoryNetwork net({.server_threads = 1, .latency_us = 10000});
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  Stopwatch timer;
  std::string response;
  ASSERT_TRUE(conn->Call("x", &response).ok());
  EXPECT_GE(timer.ElapsedMicros(), 15000u);  // 2x one-way latency
  server->Stop();
}

TEST(InMemoryNetTest, StopFailsPendingCalls) {
  InMemoryNetwork net({.server_threads = 1});
  auto server = net.CreateServer("svc");
  std::atomic<bool> failed{false};
  ASSERT_TRUE(server->Start([](Slice, std::string* out) {
    SleepMicros(20000);
    *out = "late";
  }).ok());
  auto conn = net.Connect("svc");
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    conn->CallAsync("x", [&](Status s, Slice) {
      if (!s.ok()) failed.store(true);
      done.fetch_add(1);
    });
  }
  SleepMicros(5000);
  server->Stop();
  // All callbacks must eventually fire (ok or failed), none may hang.
  Stopwatch timer;
  while (done.load() < 4 && timer.ElapsedMillis() < 5000) SleepMicros(1000);
  EXPECT_EQ(done.load(), 4);
  EXPECT_TRUE(failed.load());
}

// A Post racing the loop's eventfd read must still wake the loop. Each
// poster waits for its closure before posting the next, which keeps posts
// landing while the loop is between waking and draining; a lost wakeup
// strands the closure and fails the bounded wait instead of hanging.
TEST(EventLoopTest, ConcurrentPostsNeverStrand) {
  auto loop = std::make_unique<EventLoop>();
  ASSERT_TRUE(loop->Start().ok());
  constexpr int kThreads = 3;
  constexpr int kPostsPerThread = 100000;
  struct Poster {
    Mutex mu;
    CondVar cv;
    int ran GUARDED_BY(mu) = 0;
  };
  auto posters = std::make_unique<std::vector<Poster>>(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([loop = loop.get(), &p = (*posters)[t], t] {
      for (int i = 1; i <= kPostsPerThread; ++i) {
        ASSERT_TRUE(loop->Post([&p] {
          MutexLock lock(p.mu);
          ++p.ran;
          p.cv.NotifyAll();
        }));
        MutexLock lock(p.mu);
        if (!p.cv.WaitFor(p.mu, std::chrono::seconds(2),
                          [&]() REQUIRES(p.mu) { return p.ran == i; })) {
          ADD_FAILURE() << "thread " << t << ": post " << i
                        << " stranded for 2 s";
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (HasFailure()) {
    // A loop that lost a wakeup may never run Stop's shutdown either: leak
    // it, and the posters its stranded closures reference, rather than
    // hang the test.
    (void)loop.release();
    (void)posters.release();
    return;
  }
  loop->Stop();
}

// Thread-count, inline-handler, and torn-frame contracts are covered per
// backend in net_conformance_test.cc; only backend-independent connection
// setup behavior stays here.

TEST(TcpNetTest, ConnectToClosedPortFails) {
  std::unique_ptr<RpcConnection> conn;
  Status s = ConnectTcp("127.0.0.1:1", &conn);
  EXPECT_FALSE(s.ok());
}

TEST(TcpNetTest, BadAddressRejected) {
  std::unique_ptr<RpcConnection> conn;
  EXPECT_EQ(ConnectTcp("no-port-here", &conn).code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace dpr
