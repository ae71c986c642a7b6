// Serving-path benchmark for qmatchd: the same engine the in-process
// benches measure, but reached through the full socket stack — frame
// codec, epoll loop, worker dispatch and back.
//
// Two faces:
//
//  * Default (google-benchmark): per-request round-trip latency rows over
//    a loopback connection — the protocol floor (GetStats), a warm
//    MatchPair (serving overhead on a cache hit), a cold-cache MatchPair,
//    and SubmitSchema (parse + register). These rows gate through
//    scripts/check_perf.py against bench/baselines.json:
//      ./build/bench/bench_serving --benchmark_format=json |
//          python3 scripts/check_perf.py bench/baselines.json
//
//  * --load-table: drives the server with concurrent closed-loop clients
//    at 1x, 4x and 16x of the engine's configured admission capacity and
//    prints goodput, shed rate and the typed-outcome split per load
//    point. The serving contract under overload: goodput stays flat past
//    saturation, the excess is answered with typed kOverloaded response
//    frames (never dropped connections), and every outcome is typed.
//
// Run: build/bench/bench_serving [--load-table]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/resilient_client.h"
#include "net/server.h"
#include "replica/log.h"
#include "replica/primary.h"
#include "replica/standby.h"
#include "xsd/writer.h"

namespace {

using namespace qmatch;
using std::chrono::duration_cast;
using std::chrono::microseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Latency rows: one long-lived server, one connection per benchmark.
// ---------------------------------------------------------------------------

/// The shared server for the latency rows: default engine (result cache
/// on, so the warm rows isolate serving overhead), every corpus schema
/// registered by name.
struct Harness {
  std::unique_ptr<core::MatchEngine> engine;
  std::unique_ptr<net::Server> server;

  /// Registers the corpus schemas named in `only`, or all when empty.
  explicit Harness(size_t cache_capacity,
                   const std::vector<std::string>& only = {}) {
    core::MatchEngineOptions options;
    options.threads = 2;
    options.cache_capacity = cache_capacity;
    engine = std::make_unique<core::MatchEngine>(options);
    net::ServerOptions serve;
    serve.request_threads = 2;
    server = std::make_unique<net::Server>(engine.get(), serve);
    if (!server->Start().ok()) std::abort();
    for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
      if (!only.empty() &&
          std::find(only.begin(), only.end(), entry.name) == only.end()) {
        continue;
      }
      if (!server->RegisterSchema(entry.name, xsd::ToXsd(entry.make())).ok()) {
        std::abort();
      }
    }
  }
  ~Harness() { server->Stop(); }
};

Harness& SharedHarness() {
  static Harness harness(/*cache_capacity=*/256);
  return harness;
}

/// A cache-less twin for the warm-memo row: the result cache is keyed on
/// schema fingerprints + matcher config, so any repeated pair would hit
/// it — disabling the cache is the only way to run the match every time.
Harness& UncachedHarness() {
  static Harness harness(/*cache_capacity=*/0);
  return harness;
}

net::Client ConnectOrDie(Harness& harness) {
  Result<net::Client> client = net::Client::Connect(
      "127.0.0.1", harness.server->port(), std::chrono::seconds(30));
  if (!client.ok()) std::abort();
  return std::move(*client);
}

/// Protocol floor: the smallest request/response pair, no engine work.
void BM_Serve_GetStats(benchmark::State& state) {
  net::Client client = ConnectOrDie(SharedHarness());
  for (auto _ : state) {
    Result<net::StatsResp> resp = client.GetStats();
    if (!resp.ok() || !resp->head.ok()) state.SkipWithError("stats failed");
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_Serve_GetStats)->Unit(benchmark::kMicrosecond);

/// Serving overhead on a warm match: after the first iteration the engine
/// answers from its result cache, so the row is codec + loop + dispatch.
void BM_Serve_MatchPair_Warm_PO(benchmark::State& state) {
  net::Client client = ConnectOrDie(SharedHarness());
  for (auto _ : state) {
    Result<net::MatchPairResp> resp = client.MatchPair("PO1", "PO2", 0);
    if (!resp.ok() || !resp->head.ok()) state.SkipWithError("match failed");
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_Serve_MatchPair_Warm_PO)->Unit(benchmark::kMicrosecond);

/// Full request cost over the wire, from scratch: each iteration gets a
/// new cache-less server (built and connected outside the timed window)
/// whose engine has an empty token-similarity memo, so the request pays
/// the whole match — the cost of a pair whose vocabulary the server has
/// not seen.
void BM_Serve_MatchPair_Cold_DCMD(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    {
      Harness harness(/*cache_capacity=*/0, {"DCMDItem", "DCMDOrder"});
      net::Client client = ConnectOrDie(harness);
      state.ResumeTiming();
      Result<net::MatchPairResp> resp =
          client.MatchPair("DCMDItem", "DCMDOrder", 0);
      if (!resp.ok() || !resp->head.ok()) state.SkipWithError("match failed");
      benchmark::DoNotOptimize(resp);
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Serve_MatchPair_Cold_DCMD)->Unit(benchmark::kMillisecond);

/// The same request on a long-lived cache-less server: every iteration
/// runs the match, but after the first one every token pair comes from
/// the engine's memo — the steady state of a server whose traffic shares
/// a vocabulary.
void BM_Serve_MatchPair_WarmMemo_DCMD(benchmark::State& state) {
  net::Client client = ConnectOrDie(UncachedHarness());
  for (auto _ : state) {
    Result<net::MatchPairResp> resp =
        client.MatchPair("DCMDItem", "DCMDOrder", 0);
    if (!resp.ok() || !resp->head.ok()) state.SkipWithError("match failed");
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_Serve_MatchPair_WarmMemo_DCMD)->Unit(benchmark::kMillisecond);

/// Parse + register round trip (PO1, 10 elements).
void BM_Serve_SubmitSchema_PO1(benchmark::State& state) {
  net::Client client = ConnectOrDie(SharedHarness());
  const std::string xsd = datagen::PO1Xsd();
  for (auto _ : state) {
    Result<net::SubmitSchemaResp> resp = client.SubmitSchema("bench-po1", xsd);
    if (!resp.ok() || !resp->head.ok()) state.SkipWithError("submit failed");
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_Serve_SubmitSchema_PO1)->Unit(benchmark::kMicrosecond);

/// Client-observed failover gap: a replicated primary/standby pair and a
/// resilient client sticky on the primary. Each iteration builds the pair
/// and waits for replication catch-up OUTSIDE the measured window, then
/// times kill -> promote -> first acknowledged response from the promoted
/// standby — the outage an acknowledged-results client actually sees. The
/// response must be warm (the replicated result cache answers it), so the
/// row also gates warm promotion staying warm.
void BM_Serve_FailoverGap(benchmark::State& state) {
  const auto& corpus = datagen::Corpus();
  const std::string a = corpus[0].name;
  const std::string b = corpus[1].name;
  const std::string xsd_a = xsd::ToXsd(corpus[0].make());
  const std::string xsd_b = xsd::ToXsd(corpus[1].make());
  for (auto _ : state) {
    // Pair setup + catch-up: unmeasured.
    replica::ReplicationLog log(256);
    core::MatchEngine primary_engine{core::MatchEngineOptions{}};
    net::ServerOptions primary_options;
    primary_options.replica_heartbeat = std::chrono::milliseconds(20);
    replica::AttachPrimary(&primary_engine, &primary_options, &log);
    net::Server primary(&primary_engine, primary_options);
    if (!primary.Start().ok()) std::abort();
    if (!primary.RegisterSchema(a, xsd_a).ok()) std::abort();
    if (!primary.RegisterSchema(b, xsd_b).ok()) std::abort();

    core::MatchEngine standby_engine{core::MatchEngineOptions{}};
    net::ServerOptions standby_options;
    standby_options.role = net::Role::kStandby;
    net::Server standby(&standby_engine, standby_options);
    if (!standby.Start().ok()) std::abort();
    replica::StandbyOptions stream_options;
    stream_options.primary_port = primary.port();
    stream_options.backoff_base = std::chrono::milliseconds(10);
    stream_options.backoff_cap = std::chrono::milliseconds(50);
    replica::Standby stream(&standby_engine, &standby, stream_options);
    if (!stream.Start().ok()) std::abort();

    net::ResilientClientOptions copts;
    copts.endpoints = {{"127.0.0.1", primary.port()},
                       {"127.0.0.1", standby.port()}};
    copts.retry_budget = 16;
    copts.backoff_base = std::chrono::milliseconds(1);
    copts.backoff_cap = std::chrono::milliseconds(8);
    copts.call_deadline = std::chrono::milliseconds(10000);
    net::ResilientClient client(copts);
    // Seed the primary's result cache; replication carries the entry over.
    {
      Result<net::MatchPairResp> warm = client.MatchPair(a, b, 0);
      if (!warm.ok() || !warm->head.ok()) std::abort();
    }
    while (true) {
      const replica::StandbyStats s = stream.stats();
      if (s.connected && s.applied_seq >= log.head_seq()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Measured: the outage window, from the kill to the first answer.
    const steady_clock::time_point t0 = steady_clock::now();
    primary.Stop();
    stream.Promote();
    Result<net::MatchPairResp> resp = client.MatchPair(a, b, 0);
    const steady_clock::time_point t1 = steady_clock::now();
    if (!resp.ok() || !resp->head.ok()) {
      state.SkipWithError("failover did not recover");
    } else if (standby_engine.cache_stats().hits == 0) {
      state.SkipWithError("promoted standby answered cold");
    }
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    stream.Stop();
    standby.Stop();
  }
}
BENCHMARK(BM_Serve_FailoverGap)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(5);

/// Partition-heal convergence: a replicated pair split by the partition
/// failpoints, the standby promoted to a new fencing epoch on the far
/// side. Unmeasured: pair setup, catch-up, the partition itself and the
/// promotion. Measured: from the heal to a fully converged cluster — the
/// stale primary has heard the new epoch over its peer probe, fenced and
/// demoted itself, and re-joined as a caught-up standby of the winner.
/// This is the operator-facing recovery window after a network split.
void BM_Serve_PartitionHeal(benchmark::State& state) {
  const auto& corpus = datagen::Corpus();
  const std::string a = corpus[0].name;
  const std::string b = corpus[1].name;
  const std::string xsd_a = xsd::ToXsd(corpus[0].make());
  const std::string xsd_b = xsd::ToXsd(corpus[1].make());
  for (auto _ : state) {
    // Pair setup + catch-up: unmeasured. The standby carries its own
    // replication log (AttachPrimary, then the role flipped back) so it
    // can anchor the healed old primary after its promotion.
    replica::ReplicationLog log_a(256);
    core::MatchEngine engine_a{core::MatchEngineOptions{}};
    net::ServerOptions options_a;
    options_a.replica_heartbeat = std::chrono::milliseconds(20);
    options_a.peer_probe_timeout = std::chrono::milliseconds(200);
    replica::AttachPrimary(&engine_a, &options_a, &log_a);
    net::Server server_a(&engine_a, options_a);
    if (!server_a.Start().ok()) std::abort();
    if (!server_a.RegisterSchema(a, xsd_a).ok()) std::abort();
    if (!server_a.RegisterSchema(b, xsd_b).ok()) std::abort();

    replica::ReplicationLog log_b(256);
    core::MatchEngine engine_b{core::MatchEngineOptions{}};
    net::ServerOptions options_b;
    options_b.replica_heartbeat = std::chrono::milliseconds(20);
    options_b.peer_probe_timeout = std::chrono::milliseconds(200);
    replica::AttachPrimary(&engine_b, &options_b, &log_b);
    options_b.role = net::Role::kStandby;
    net::Server server_b(&engine_b, options_b);
    if (!server_b.Start().ok()) std::abort();
    server_a.SetPeer("127.0.0.1", server_b.port());
    server_b.SetPeer("127.0.0.1", server_a.port());

    replica::StandbyOptions stream_options;
    stream_options.primary_port = server_a.port();
    stream_options.backoff_base = std::chrono::milliseconds(10);
    stream_options.backoff_cap = std::chrono::milliseconds(50);
    replica::Standby stream_b(&engine_b, &server_b, stream_options);
    if (!stream_b.Start().ok()) std::abort();
    while (true) {
      const replica::StandbyStats s = stream_b.stats();
      if (s.connected && s.applied_seq >= log_a.head_seq()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Split the pair and promote the standby on the far side: epoch 2
    // now owns the cluster, the old primary just cannot hear it yet.
    {
      fault::ScopedFailpoint sever_replica("net.partition.replica",
                                           fault::FaultSpec{});
      fault::ScopedFailpoint sever_peer("net.partition.peer",
                                        fault::FaultSpec{});
      stream_b.Promote();
      if (server_b.role() != net::Role::kPrimary) std::abort();
    }  // heal: the failpoints disarm here.

    // Measured: heal -> the stale primary fenced, demoted, re-joined and
    // caught up on the winner's log.
    const steady_clock::time_point t0 = steady_clock::now();
    while (server_a.role() != net::Role::kStandby) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    replica::StandbyOptions rejoin_options;
    rejoin_options.primary_port = server_b.port();
    rejoin_options.backoff_base = std::chrono::milliseconds(10);
    rejoin_options.backoff_cap = std::chrono::milliseconds(50);
    replica::Standby stream_a(&engine_a, &server_a, rejoin_options);
    if (!stream_a.Start().ok()) std::abort();
    while (true) {
      const replica::StandbyStats s = stream_a.stats();
      if (s.connected && s.applied_seq >= log_b.head_seq() &&
          server_a.epoch() == 2 && !server_a.fenced()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const steady_clock::time_point t1 = steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());

    stream_a.Stop();
    stream_b.Stop();
    server_a.Stop();
    server_b.Stop();
  }
}
BENCHMARK(BM_Serve_PartitionHeal)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(5);

// ---------------------------------------------------------------------------
// --load-table: goodput and typed outcomes vs offered load.
// ---------------------------------------------------------------------------

struct LoadPoint {
  size_t clients = 0;
  size_t offered = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t exhausted = 0;
  size_t transport = 0;
  size_t untyped = 0;
  microseconds elapsed{0};
};

/// Drives a dedicated server (admission capacity 1, queue depth 2 — the
/// same knife-edge as bench_overload) with `clients` closed-loop mixed
/// clients: mostly MatchPair, every eighth request a GetStats. Every
/// response must carry a typed verdict.
LoadPoint Drive(size_t clients, size_t requests_per_client) {
  core::MatchEngineOptions options;
  options.threads = 2;
  options.cache_capacity = 0;  // every request pays the full match
  options.overload.admission.max_inflight_cost = 1;
  options.overload.admission.max_queue_depth = 2;
  core::MatchEngine engine(options);
  net::ServerOptions serve;
  // More workers than admission capacity, so concurrent requests actually
  // contend at the admission gate instead of queueing in the thread pool.
  serve.request_threads = 8;
  net::Server server(&engine, serve);
  if (!server.Start().ok()) std::abort();
  const std::string src = "DCMDItem";
  const std::string tgt = "DCMDOrder";
  for (const char* name : {"DCMDItem", "DCMDOrder"}) {
    for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
      if (entry.name == name &&
          !server.RegisterSchema(entry.name, xsd::ToXsd(entry.make())).ok()) {
        std::abort();
      }
    }
  }

  LoadPoint point;
  point.clients = clients;
  point.offered = clients * requests_per_client;
  std::atomic<size_t> ok{0}, shed{0}, deadline{0}, exhausted{0};
  std::atomic<size_t> transport{0}, untyped{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const steady_clock::time_point start = steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, port = server.port()]() {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", port, std::chrono::seconds(30));
      if (!client.ok()) {
        transport.fetch_add(requests_per_client);
        return;
      }
      for (size_t r = 0; r < requests_per_client; ++r) {
        if (r % 8 == 7) {
          Result<net::StatsResp> stats = client->GetStats();
          if (!stats.ok()) transport.fetch_add(1);
          else if (stats->head.ok()) ok.fetch_add(1);
          else untyped.fetch_add(1);
          continue;
        }
        Result<net::MatchPairResp> resp = client->MatchPair(src, tgt, 5000);
        if (!resp.ok()) {
          transport.fetch_add(1);
          continue;
        }
        switch (resp->head.status_code()) {
          case StatusCode::kOk: ok.fetch_add(1); break;
          case StatusCode::kOverloaded: shed.fetch_add(1); break;
          case StatusCode::kDeadlineExceeded: deadline.fetch_add(1); break;
          case StatusCode::kResourceExhausted: exhausted.fetch_add(1); break;
          default: untyped.fetch_add(1); break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  point.elapsed = duration_cast<microseconds>(steady_clock::now() - start);
  server.Stop();
  point.ok = ok.load();
  point.shed = shed.load();
  point.deadline = deadline.load();
  point.exhausted = exhausted.load();
  point.transport = transport.load();
  point.untyped = untyped.load();
  return point;
}

int RunLoadTable() {
  constexpr size_t kRequestsPerClient = 48;
  std::printf("== Serving: goodput and typed outcomes vs offered load ==\n\n");
  std::printf("%-8s %8s %8s %8s %9s %10s %12s %10s\n", "load", "offered",
              "ok", "shed", "deadline", "exhausted", "goodput/s",
              "shed rate");
  bool clean = true;
  for (const size_t clients : {size_t{1}, size_t{4}, size_t{16}}) {
    const LoadPoint p = Drive(clients, kRequestsPerClient);
    const double secs = static_cast<double>(p.elapsed.count()) / 1e6;
    const double goodput = secs > 0.0 ? static_cast<double>(p.ok) / secs : 0.0;
    const double shed_rate =
        p.offered > 0
            ? static_cast<double>(p.shed) / static_cast<double>(p.offered)
            : 0.0;
    char label[32];
    std::snprintf(label, sizeof(label), "%zux", p.clients);
    std::printf("%-8s %8zu %8zu %8zu %9zu %10zu %12.1f %9.1f%%\n", label,
                p.offered, p.ok, p.shed, p.deadline, p.exhausted, goodput,
                100.0 * shed_rate);
    if (p.untyped > 0 || p.transport > 0) {
      std::fprintf(stderr,
                   "%zu clients: %zu untyped verdicts, %zu transport "
                   "failures — every outcome must be typed\n",
                   p.clients, p.untyped, p.transport);
      clean = false;
    }
  }
  std::printf(
      "\nAdmission capacity 1 with queue depth 2 behind the socket: the 1x\n"
      "client never sheds; past saturation goodput stays flat and every\n"
      "excess request is answered with a typed kOverloaded response frame\n"
      "on a live connection — overload never silently drops a client.\n");
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--load-table") == 0) return RunLoadTable();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
