// ResilientClient edge cases (DESIGN.md §15): the retry/backoff/failover
// machinery that makes a client survive its server, and — just as
// important — the rules that keep retrying SAFE:
//
//  * budget exhaustion returns the LAST error observed, typed;
//  * a transport error after the request bytes were sent is ambiguous —
//    non-idempotent SubmitSchema surfaces it instead of retrying, while
//    idempotent requests fail over and retry;
//  * the endpoint walk is sticky: stay until failure, then advance in
//    order.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "net/client.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "test_util.h"
#include "xsd/writer.h"

namespace qmatch::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::steady_clock;

// --- test doubles ----------------------------------------------------------

/// A TCP endpoint that accepts, reads the request bytes and slams the
/// connection shut without answering — the "ambiguous send" case: the
/// request reached a server that died before acknowledging.
class RogueServer {
 public:
  RogueServer() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
      ::close(fd);
      return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    fd_.store(fd, std::memory_order_release);
    thread_ = std::thread([this] { Run(); });
  }

  ~RogueServer() { Stop(); }

  void Stop() {
    const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      // shutdown() wakes the blocking accept; close alone may not.
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  uint64_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

 private:
  void Run() {
    while (true) {
      const int listen_fd = fd_.load(std::memory_order_acquire);
      if (listen_fd < 0) return;
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) return;
      connections_.fetch_add(1, std::memory_order_relaxed);
      char buf[512];
      (void)!::read(conn, buf, sizeof(buf));  // let the request bytes land
      ::close(conn);                          // then die without answering
    }
  }

  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
  std::atomic<uint64_t> connections_{0};
  std::thread thread_;
};

/// A port guaranteed (at pick time) to have no listener: connecting to it
/// fails fast with ECONNREFUSED — the "nothing was sent" case.
uint16_t DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

// --- server-backed scenarios -----------------------------------------------

class ResilientClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::Global().ResetAll();
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    primary_ = std::make_unique<Server>(engine_.get(), ServerOptions{});
    ASSERT_TRUE(primary_->Start().ok());

    standby_engine_ =
        std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    ServerOptions standby_options;
    standby_options.role = Role::kStandby;
    standby_ = std::make_unique<Server>(standby_engine_.get(), standby_options);
    ASSERT_TRUE(standby_->Start().ok());

    const auto& corpus = datagen::Corpus();
    for (size_t i = 0; i < 2; ++i) {
      names_.push_back(corpus[i].name);
      xsds_.push_back(xsd::ToXsd(corpus[i].make()));
      ASSERT_TRUE(primary_->RegisterSchema(names_[i], xsds_[i]).ok());
      ASSERT_TRUE(standby_->RegisterSchema(names_[i], xsds_[i]).ok());
    }
  }

  void TearDown() override {
    standby_->Stop();
    primary_->Stop();
  }

  ResilientClientOptions FastOptions() {
    ResilientClientOptions options;
    options.connect_timeout = test::Scaled(milliseconds(1000));
    options.io_timeout = test::Scaled(milliseconds(2000));
    options.call_deadline = test::Scaled(milliseconds(20000));
    options.backoff_base = milliseconds(1);
    options.backoff_cap = milliseconds(4);
    options.backoff_seed = 11;
    return options;
  }

  Endpoint PrimaryEndpoint() { return Endpoint{"127.0.0.1", primary_->port()}; }
  Endpoint StandbyEndpoint() { return Endpoint{"127.0.0.1", standby_->port()}; }

  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<core::MatchEngine> standby_engine_;
  std::unique_ptr<Server> primary_;
  std::unique_ptr<Server> standby_;
  std::vector<std::string> names_;
  std::vector<std::string> xsds_;
};

TEST_F(ResilientClientTest, HappyPathMatchesThePlainClientBitForBit) {
  ResilientClientOptions options = FastOptions();
  options.endpoints = {PrimaryEndpoint()};
  ResilientClient client(options);
  Result<MatchPairResp> resp = client.MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;

  Result<Client> plain = Client::Connect("127.0.0.1", primary_->port(),
                                         test::Scaled(milliseconds(2000)));
  ASSERT_TRUE(plain.ok());
  Result<MatchPairResp> want = plain->MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(resp->schema_qom),
            std::bit_cast<uint64_t>(want->schema_qom));
  ASSERT_EQ(resp->correspondences.size(), want->correspondences.size());
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().failovers, 0u);
  EXPECT_EQ(client.current_endpoint(), 0u);
}

TEST_F(ResilientClientTest, NoEndpointsIsATypedUnavailable) {
  ResilientClient client(FastOptions());
  Result<StatsResp> resp = client.GetStats();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
}

TEST_F(ResilientClientTest, ZeroRetryBudgetStillMakesTheFirstAttempt) {
  ResilientClientOptions options = FastOptions();
  options.endpoints = {PrimaryEndpoint()};
  options.retry_budget = 0;
  ResilientClient client(options);
  Result<StatsResp> resp = client.GetStats();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->head.ok());
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST_F(ResilientClientTest, BudgetExhaustionReturnsTheLastTypedError) {
  // Every attempt lands on a standby, which refuses engine work with a
  // typed kUnavailable. The client retries (safe: nothing ran), exhausts
  // the budget, and must surface THAT typed error — not a generic failure.
  ResilientClientOptions options = FastOptions();
  options.endpoints = {StandbyEndpoint()};
  options.retry_budget = 2;
  ResilientClient client(options);
  Result<MatchPairResp> resp = client.MatchPair(names_[0], names_[1], 5000);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(resp.status().message().find("not primary"), std::string::npos)
      << resp.status().ToString();
  // Budget of 2 = 3 attempts total, 2 of them retries.
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_GE(client.stats().failovers, 1u);
}

TEST_F(ResilientClientTest, FailsOverFromStandbyToPrimaryAndSticks) {
  ResilientClientOptions options = FastOptions();
  options.endpoints = {StandbyEndpoint(), PrimaryEndpoint()};
  ResilientClient client(options);
  Result<MatchPairResp> resp = client.MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;
  EXPECT_EQ(client.current_endpoint(), 1u);
  const uint64_t failovers_after_first = client.stats().failovers;
  EXPECT_GE(failovers_after_first, 1u);

  // Sticky: the follow-up call goes straight to the endpoint that answered.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(client.current_endpoint(), 1u);
  EXPECT_EQ(client.stats().failovers, failovers_after_first);
}

TEST_F(ResilientClientTest, ConnectFailureRetriesEveryTypeEvenSubmitSchema) {
  // A refused connect happened before any bytes were sent, so even the
  // non-idempotent SubmitSchema may fail over and retry.
  ResilientClientOptions options = FastOptions();
  options.endpoints = {Endpoint{"127.0.0.1", DeadPort()}, PrimaryEndpoint()};
  ResilientClient client(options);
  const size_t before = primary_->schema_count();
  Result<SubmitSchemaResp> resp = client.SubmitSchema("resilient-extra",
                                                      xsds_[0]);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;
  EXPECT_EQ(primary_->schema_count(), before + 1);
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(client.current_endpoint(), 1u);
}

TEST_F(ResilientClientTest, AmbiguousSendIsNeverRetriedForSubmitSchema) {
  // The rogue endpoint reads the request and dies without answering: the
  // registration MAY have landed. SubmitSchema must stop right there and
  // hand the transport error to the caller — even though a healthy
  // primary is next in the endpoint list.
  RogueServer rogue;
  ASSERT_NE(rogue.port(), 0);
  ResilientClientOptions options = FastOptions();
  options.endpoints = {Endpoint{"127.0.0.1", rogue.port()}, PrimaryEndpoint()};
  ResilientClient client(options);
  const size_t before = primary_->schema_count();
  Result<SubmitSchemaResp> resp = client.SubmitSchema("ambiguous", xsds_[0]);
  ASSERT_FALSE(resp.ok());
  // A transport error, not the typed kUnavailable (which would mean the
  // server refused cleanly and a retry would have been safe).
  EXPECT_NE(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(primary_->schema_count(), before);
  EXPECT_EQ(rogue.connections(), 1u);
}

TEST_F(ResilientClientTest, AmbiguousSendRetriesIdempotentMatchPair) {
  // Same rogue endpoint, but MatchPair is idempotent: re-running it on the
  // next endpoint cannot corrupt anything, so the client must push through.
  RogueServer rogue;
  ASSERT_NE(rogue.port(), 0);
  ResilientClientOptions options = FastOptions();
  options.endpoints = {Endpoint{"127.0.0.1", rogue.port()}, PrimaryEndpoint()};
  ResilientClient client(options);
  Result<MatchPairResp> resp = client.MatchPair(names_[0], names_[1], 5000);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->head.ok()) << resp->head.message;
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(client.current_endpoint(), 1u);
  EXPECT_GE(rogue.connections(), 1u);
}

TEST_F(ResilientClientTest, CallDeadlineBoundsTheWholeRetryLoop) {
  // A dead endpoint with a huge budget: without the call deadline this
  // would grind through 10k refused connects; with it the call returns
  // within the bound, carrying the last real connect error.
  ResilientClientOptions options = FastOptions();
  options.endpoints = {Endpoint{"127.0.0.1", DeadPort()}};
  options.retry_budget = 10000;
  options.backoff_base = milliseconds(5);
  options.backoff_cap = milliseconds(20);
  options.call_deadline = test::Scaled(milliseconds(250));
  ResilientClient client(options);
  const steady_clock::time_point start = steady_clock::now();
  Result<StatsResp> resp = client.GetStats();
  const auto elapsed = std::chrono::duration_cast<milliseconds>(
      steady_clock::now() - start);
  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().code(), StatusCode::kOk);
  // Generous ceiling: the deadline plus scheduling slack, never the
  // 10k-attempt grind.
  EXPECT_LT(elapsed, test::Scaled(milliseconds(250)) + test::kDeadlineSlack)
      << "call deadline did not bound the retry loop";
  EXPECT_GE(client.stats().retries, 1u);
}

}  // namespace
}  // namespace qmatch::net
