// served-mix: net::Server on loopback inside this process, driven by one
// open-loop generator thread over at most 4 pipelined connections through a
// fixed-rate ladder, plus the open-loop honesty self-test.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "fault/failpoint.h"
#include "lingua/default_thesaurus.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "replay.h"
#include "workloads.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qbench {

namespace core = qmatch::core;
namespace datagen = qmatch::datagen;
namespace net = qmatch::net;
namespace xsd = qmatch::xsd;

namespace {

constexpr int kSetupRepetitions = 5;
/// Generated schemas: 4 domains × 8 sizes between 100 and 400 nodes. A miss
/// costs 10–50 ms, so host scheduling jitter on the request's thread
/// hand-offs stays a small share of its latency.
constexpr datagen::Domain kDomains[] = {
    datagen::Domain::kGeneric, datagen::Domain::kCommerce,
    datagen::Domain::kBibliographic, datagen::Domain::kProtein};
constexpr size_t kSizes[] = {100, 140, 180, 220, 260, 300, 350, 400};
constexpr size_t kGenerated = std::size(kDomains) * std::size(kSizes);
/// Pre-generated revisions per generated schema (SubmitSchema inputs).
constexpr size_t kRevisions = 4;
/// Distinct (source, target) pairs MatchPair draws from — larger than the
/// engine's 128-entry result cache.
constexpr size_t kWorkingSet = 400;
/// Zipf exponent of pair popularity, tuned so that about a third of
/// MatchPair requests are answered from the cache.
constexpr double kZipfExponent = 0.55;
constexpr double kWriteShare = 0.10;
/// The run: a closed-loop phase (35% of the run) whose MatchPair latencies
/// are the end-to-end figures, a write-only phase of kWriteProbes
/// sequential SubmitSchema requests whose latencies are, then the
/// open-loop ladder over the rest of the run, in equal steps at these
/// offered rates (requests per second). The server's capacity is 160–260/s
/// on a 4-vCPU host, with the host's load. The first step, the nominal
/// rate, is below that; the steps are 1.2× apart up to about twice it, so a
/// 25% change in capacity moves max_rate_rps by at least one step. Lower
/// steps would always pass and only shorten the steps that decide.
constexpr double kLadderRps[] = {100, 120, 144, 173, 207, 249, 299, 358, 430};
/// Index of the ladder's nominal step.
constexpr size_t kNominalStep = 0;
/// Steps before the ladder: the closed loop and the write-only phase.
constexpr size_t kLadderBegin = 2;
/// Closed loop: answers outstanding per read connection (MatchPair) and on
/// the write connection (SubmitSchema). Six reads in flight keep both
/// request workers busy, so latency follows the server's throughput
/// (Little's law) instead of thread wake-up delays, which a shared 4-vCPU
/// VM stretches by milliseconds from run to run when it idles.
constexpr size_t kReadDepth = 2;
constexpr size_t kWriteDepth = 1;
/// Write-only phase length. A fixed count keeps the tail percentile at p90,
/// below the few-millisecond host stalls a millisecond-scale request meets
/// now and then.
constexpr size_t kWriteProbes = 100;
/// Closed-phase schedule length per second: above any rate the server
/// reaches, so the phase ends on time rather than on requests.
constexpr double kClosedScheduleRate = 1000.0;
constexpr size_t kMaxConnections = 4;
/// Seed of the served repository's generated schemas and working set.
constexpr uint64_t kRepositorySeed = 0x5E12FEDULL;
/// A step whose outstanding requests pass this many is saturated: the
/// generator stops sending its remaining requests (they are not attempted)
/// and the step fails. It stays far below the server's per-connection
/// pipeline depth of 256.
constexpr size_t kSaturationBacklog = 128;

/// Load-generating connections: at most 4, and never more than the host's
/// processors.
size_t Connections() {
  return std::min<size_t>(kMaxConnections, std::max(1u, std::thread::hardware_concurrency()));
}

std::string CodeName(uint32_t code) {
  return std::string(qmatch::StatusCodeToString(static_cast<qmatch::StatusCode>(code)));
}

/// One registered name: its versions as XSD text (version 0 = the text
/// registered at setup).
struct NamedSchema {
  std::string name;
  std::vector<std::string> versions;
  /// PIR and PDB are registered but never requested: pairs with them are
  /// pair-large's territory and would set the tail alone.
  bool requestable = true;
};

struct ServedInputs {
  std::vector<NamedSchema> names;
  std::vector<size_t> generated;  // indices of names that receive writes
  std::vector<std::pair<size_t, size_t>> pairs;  // working set, by rank
  std::vector<double> zipf_cdf;
  std::unique_ptr<core::MatchEngine> engine;
  std::unique_ptr<net::Server> server;
};

bool BuildServed(const Args& args, ServedInputs* in) {
  // The paper corpus, as shipped.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(DataPath(args, "schemas"))) {
    if (entry.path().extension() == ".xsd") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) return false;
  for (const std::string& f : files) {
    qmatch::Result<std::string> text = qmatch::ReadFile(f);
    if (!text.ok()) return false;
    NamedSchema n;
    n.name = std::filesystem::path(f).stem().string();
    n.requestable = n.name != "PDB" && n.name != "PIR";
    n.versions.push_back(std::move(*text));
    in->names.push_back(std::move(n));
  }
  // Generated schemas and their revisions. Like the working set below they
  // are the same for every seed: the server's repository is fixed and the
  // seed drives the traffic (arrivals, pair draws, writes), so runs with
  // different seeds differ in what is asked, not in what is stored.
  for (size_t g = 0; g < kGenerated; ++g) {
    datagen::GeneratorOptions go;
    go.domain = kDomains[g % std::size(kDomains)];
    go.element_count = kSizes[g / std::size(kDomains)];
    go.max_depth = 5;
    go.seed = Mix(kRepositorySeed, 500 + g);
    go.name = "Gen" + std::to_string(g);
    const xsd::Schema base = datagen::GenerateSchema(go);
    NamedSchema n;
    n.name = "gen" + std::to_string(g);
    n.versions.push_back(xsd::ToXsd(base));
    for (size_t r = 1; r <= kRevisions; ++r) {
      n.versions.push_back(xsd::ToXsd(
          datagen::Perturb(base, SizeStablePerturb(Mix(kRepositorySeed, 10000 + g * 16 + r)), nullptr)));
    }
    in->generated.push_back(in->names.size());
    in->names.push_back(std::move(n));
  }
  // Working set: PO1 -> PO2 first (the most popular pair), then distinct
  // pairs over the requestable names.
  std::vector<size_t> requestable;
  size_t po1 = 0;
  size_t po2 = 0;
  for (size_t i = 0; i < in->names.size(); ++i) {
    if (in->names[i].requestable) requestable.push_back(i);
    if (in->names[i].name == "PO1") po1 = i;
    if (in->names[i].name == "PO2") po2 = i;
  }
  std::set<std::pair<size_t, size_t>> chosen{{po1, po2}};
  in->pairs.push_back({po1, po2});
  Rng rng(Mix(kRepositorySeed, 77));
  while (in->pairs.size() < kWorkingSet) {
    const size_t a = requestable[rng.Below(requestable.size())];
    const size_t b = requestable[rng.Below(requestable.size())];
    if (a == b || !chosen.insert({a, b}).second) continue;
    in->pairs.push_back({a, b});
  }
  double total = 0.0;
  for (size_t r = 0; r < kWorkingSet; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    in->zipf_cdf.push_back(total);
  }
  for (double& c : in->zipf_cdf) c /= total;

  // Engine and server: threads=1, default cache, 2 request workers.
  core::MatchEngineOptions eo;
  eo.threads = 1;
  in->engine = std::make_unique<core::MatchEngine>(core::QMatchConfig{}, eo);
  net::ServerOptions so;
  so.port = 0;
  so.request_threads = 2;
  in->server = std::make_unique<net::Server>(in->engine.get(), so);
  if (!in->server->Start().ok()) return false;
  for (const NamedSchema& n : in->names) {
    if (!in->server->RegisterSchema(n.name, n.versions[0]).ok()) return false;
  }
  // Warm-up: the first Flat() of every registered schema and the thesaurus,
  // paid once per process; the cache entries it creates are cleared.
  qmatch::Result<net::Client> client = net::Client::Connect("127.0.0.1", in->server->port());
  if (!client.ok()) return false;
  for (const NamedSchema& n : in->names) {
    qmatch::Result<net::MatchPairResp> r = client->MatchPair(n.name, "PO1");
    if (!r.ok() || !r->head.ok()) return false;
  }
  in->engine->ClearCache();
  return true;
}

// ---------------------------------------------------------------------------
// Request schedule and the open-loop generator
// ---------------------------------------------------------------------------

enum class Kind { kMatchPair, kSubmit };

struct Request {
  Kind kind = Kind::kMatchPair;
  size_t step = 0;
  size_t conn = SIZE_MAX;            // connection (set when routed)
  size_t pair = 0;                   // MatchPair: working-set rank
  size_t name = 0;                   // SubmitSchema: name index
  size_t version = 0;                // SubmitSchema: version index
  double due_ms = 0.0;               // offset from the step start
  // Filled by the generator.
  bool issued = false;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point recv;
  bool answered = false;
  uint32_t code = 0;
  uint64_t digest = 0;               // MatchPair: response digest
  std::string qom_text;              // MatchPair: %.12g of schema QoM
  uint64_t fingerprint = 0;          // SubmitSchema: response fingerprint
  uint64_t nodes = 0;
};

struct Step {
  double rate = 0.0;     // open loop: offered requests per second
  size_t depth = 0;      // closed loop: reads outstanding per connection
  double seconds = 0.0;
  size_t begin = 0;
  size_t end = 0;  // request index range
  Clock::time_point start;
  Clock::time_point stop;
  std::vector<std::pair<double, size_t>> backlog;  // (ms into step, outstanding)
  size_t backlog_max = 0;
  bool saturated = false;
  // /metrics deltas (traced runs): the server's net.request_ns histogram.
  double server_sum_ns = 0.0;
  double server_count = 0.0;
  core::MatchEngineCacheStats cache_before;
  core::MatchEngineCacheStats cache_after;
};

/// Builds the seeded schedule of one step: rate·seconds Poisson arrivals
/// (a Poisson process conditioned on its count: sorted uniform times),
/// SubmitSchema at `write_share`, and MatchPair with Zipf pair popularity.
void ScheduleStep(const ServedInputs& in, Rng* rng, size_t step_index, double rate,
                  double seconds, double write_share, std::vector<Request>* out) {
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> times(count);
  for (double& t : times) t = rng->Uniform() * seconds * 1000.0;
  std::sort(times.begin(), times.end());
  for (double t : times) {
    Request r;
    r.step = step_index;
    r.due_ms = t;
    if (rng->Uniform() < write_share) {
      r.kind = Kind::kSubmit;
      r.name = in.generated[rng->Below(in.generated.size())];
      r.version = 1 + rng->Below(kRevisions);
    } else {
      const double u = rng->Uniform();
      r.pair = static_cast<size_t>(
          std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) - in.zipf_cdf.begin());
      if (r.pair >= in.pairs.size()) r.pair = in.pairs.size() - 1;
    }
    out->push_back(r);
  }
}

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::deque<size_t> inflight;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// The open-loop generator: one thread sends every request at its due time
/// (never waiting for answers) and reads answers as they arrive, over
/// pipelined connections. Latency counts from the due time.
class Generator {
 public:
  Generator(const ServedInputs& in, uint16_t port, size_t connections)
      : in_(in), conns_(connections) {
    for (Conn& c : conns_) c.fd = ConnectLoopback(port);
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool ok() const {
    for (const Conn& c : conns_) {
      if (c.fd < 0) return false;
    }
    return true;
  }

  /// Runs requests[step.begin, step.end); returns false on a transport
  /// failure. `on_tick` runs once per loop iteration with the offset into
  /// the step (the honesty test arms its failpoint from it).
  template <typename Tick>
  bool RunStep(std::vector<Request>& requests, Step* step, Tick on_tick) {
    step->start = Clock::now() + std::chrono::milliseconds(2);
    const bool closed = step->depth > 0;
    const double span_ms = step->seconds * 1000.0;
    for (size_t i = step->begin; i < step->end && !closed; ++i) {
      requests[i].due = step->start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double, std::milli>(
                                              requests[i].due_ms));
    }
    size_t next = step->begin;
    size_t outstanding = 0;
    double next_sample_ms = 0.0;
    const Clock::time_point hard_stop =
        step->start + std::chrono::seconds(static_cast<long>(step->seconds) + 60);
    std::vector<pollfd> fds(conns_.size());
    while (next < step->end || outstanding > 0) {
      Clock::time_point now = Clock::now();
      if (now > hard_stop) return false;
      const double into = MsBetween(step->start, now);
      on_tick(into);
      if (closed && into >= span_ms) next = step->end;  // stop issuing
      while (next < step->end && (closed || requests[next].due <= now)) {
        if (!closed && outstanding > kSaturationBacklog) {
          step->saturated = true;
          next = step->end;
          break;
        }
        Request& r = requests[next];
        if (r.conn == SIZE_MAX) r.conn = Route(r);
        Conn& c = conns_[r.conn];
        if (closed && c.inflight.size() >= (r.kind == Kind::kSubmit ? kWriteDepth : step->depth)) {
          break;  // the closed loop sends in order, once a slot frees up
        }
        if (closed) r.due = now;
        c.out += Encode(r);
        c.inflight.push_back(next);
        r.issued = true;
        r.sent = now;
        ++outstanding;
        ++next;
      }
      step->backlog_max = std::max(step->backlog_max, outstanding);
      if (into >= next_sample_ms) {
        step->backlog.emplace_back(into, outstanding);
        next_sample_ms = into + 10.0;
      }
      for (size_t k = 0; k < conns_.size(); ++k) {
        if (!Flush(&conns_[k])) return false;
        fds[k].fd = conns_[k].fd;
        fds[k].events = static_cast<short>(POLLIN | (conns_[k].out.empty() ? 0 : POLLOUT));
        fds[k].revents = 0;
      }
      timespec timeout{0, 50 * 1000 * 1000};
      if (closed && next < step->end) {
        const auto ns = std::max<int64_t>(0, static_cast<int64_t>((span_ms - into) * 1e6));
        if (ns < 50 * 1000 * 1000) timeout = timespec{0, static_cast<long>(ns)};
      } else if (next < step->end) {
        const auto wait = requests[next].due - Clock::now();
        const auto ns = std::max<int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count());
        timeout.tv_sec = static_cast<time_t>(ns / 1000000000);
        timeout.tv_nsec = static_cast<long>(ns % 1000000000);
        if (timeout.tv_sec > 0) timeout = timespec{0, 50 * 1000 * 1000};
      }
      const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;
      for (size_t k = 0; k < conns_.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        const int read = Read(&conns_[k], requests);
        if (read < 0) return false;
        outstanding -= static_cast<size_t>(read);
      }
    }
    step->stop = Clock::now();
    return true;
  }

 private:
  /// SubmitSchema always travels on connection 0, which the server runs in
  /// order (so revisions apply in send order); MatchPair goes round-robin
  /// over the other connections, so a slow answer holds up the requests
  /// pipelined behind it, as it would for any pipelining client. Called
  /// once per request.
  size_t Route(const Request& r) {
    if (r.kind == Kind::kSubmit || conns_.size() == 1) return 0;
    return 1 + (next_read_++ % (conns_.size() - 1));
  }

  std::string Encode(const Request& r) const {
    if (r.kind == Kind::kSubmit) {
      net::SubmitSchemaReq req;
      req.name = in_.names[r.name].name;
      req.xsd_text = in_.names[r.name].versions[r.version];
      return net::EncodeFrame(net::MsgType::kSubmitSchema, net::EncodeSubmitSchemaReq(req));
    }
    net::MatchPairReq req;
    req.source = in_.names[in_.pairs[r.pair].first].name;
    req.target = in_.names[in_.pairs[r.pair].second].name;
    return net::EncodeFrame(net::MsgType::kMatchPair, net::EncodeMatchPairReq(req));
  }

  static bool Flush(Conn* c) {
    while (!c->out.empty()) {
      const ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      c->out.erase(0, static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads and decodes every complete answer; returns how many requests it
  /// completed, or -1 on a transport or framing failure.
  int Read(Conn* c, std::vector<Request>& requests) {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return -1;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return -1;
    }
    const Clock::time_point now = Clock::now();
    int done = 0;
    while (true) {
      net::Frame frame;
      size_t consumed = 0;
      const net::FrameDecodeResult res = net::DecodeFrame(c->in, &frame, &consumed);
      if (res == net::FrameDecodeResult::kNeedMore) break;
      if (res != net::FrameDecodeResult::kFrame || c->inflight.empty()) return -1;
      c->in.erase(0, consumed);
      Request& r = requests[c->inflight.front()];
      c->inflight.pop_front();
      r.recv = now;
      r.answered = true;
      Decode(frame, &r);
      ++done;
    }
    return done;
  }

  static void Decode(const net::Frame& frame, Request* r) {
    const auto type = static_cast<net::MsgType>(frame.type);
    if (type == net::MsgType::kMatchPairResp && r->kind == Kind::kMatchPair) {
      net::MatchPairResp resp;
      if (!net::DecodeMatchPairResp(frame.payload, &resp)) {
        r->code = static_cast<uint32_t>(qmatch::StatusCode::kDataLoss);
        return;
      }
      r->code = resp.head.code;
      if (!resp.head.ok()) return;
      std::vector<std::pair<std::string, std::string>> paths;
      std::vector<double> scores;
      for (const net::WireCorrespondence& c : resp.correspondences) {
        paths.emplace_back(c.source_path, c.target_path);
        scores.push_back(c.score);
      }
      r->digest = ResultDigest(resp.schema_qom, paths, scores);
      if (resp.mode != 0 || resp.completed_rows != resp.total_rows) r->digest ^= 1;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", resp.schema_qom);
      r->qom_text = buf;
    } else if (type == net::MsgType::kSubmitSchemaResp && r->kind == Kind::kSubmit) {
      net::SubmitSchemaResp resp;
      if (!net::DecodeSubmitSchemaResp(frame.payload, &resp)) {
        r->code = static_cast<uint32_t>(qmatch::StatusCode::kDataLoss);
        return;
      }
      r->code = resp.head.code;
      r->fingerprint = resp.fingerprint;
      r->nodes = resp.node_count;
    } else {
      net::ResponseHead head;
      r->code = net::DecodeResponseHead(frame.payload, &head) && head.code != 0
                    ? head.code
                    : static_cast<uint32_t>(qmatch::StatusCode::kDataLoss);
    }
  }

  const ServedInputs& in_;
  std::vector<Conn> conns_;
  size_t next_read_ = 0;
};

// ---------------------------------------------------------------------------
// Oracle: every answer against an in-process reference engine
// ---------------------------------------------------------------------------

/// Versions of `name` a MatchPair answered at `recv` and sent at `sent` may
/// have used: SubmitSchema requests all travel on connection 0, which the
/// server runs in order, so the candidates run from the last version
/// acknowledged before `sent` to the last version sent before `recv`.
std::vector<size_t> CandidateVersions(const std::vector<const Request*>& submits,
                                      size_t initial, Clock::time_point sent,
                                      Clock::time_point recv) {
  size_t lower = initial;
  std::vector<size_t> out;
  size_t first_open = 0;
  for (size_t i = 0; i < submits.size(); ++i) {
    const Request* s = submits[i];
    if (s->answered && s->code == 0 && s->recv <= sent) {
      lower = s->version;
      first_open = i + 1;
    }
  }
  out.push_back(lower);
  for (size_t i = first_open; i < submits.size(); ++i) {
    if (submits[i]->sent < recv && submits[i]->code == 0) out.push_back(submits[i]->version);
  }
  return out;
}

class Reference {
 public:
  explicit Reference(const ServedInputs& in) : in_(in) {
    core::MatchEngineOptions eo;
    eo.threads = 1;
    eo.cache_capacity = 0;
    engine_ = std::make_unique<core::MatchEngine>(core::QMatchConfig{}, eo);
  }

  /// Parsed schema of (name, version), parsed once as the server parses it.
  const xsd::Schema* Schema(size_t name, size_t version) {
    auto [it, inserted] = schemas_.try_emplace({name, version});
    if (inserted) {
      xsd::ParseOptions po;
      po.schema_name = in_.names[name].name;
      qmatch::Result<xsd::Schema> s = xsd::ParseSchema(in_.names[name].versions[version], po);
      if (s.ok()) it->second = std::make_unique<xsd::Schema>(std::move(*s));
    }
    return it->second.get();
  }

  /// Digests of every (source version, target version) combination listed.
  void Compute(const std::set<std::tuple<size_t, size_t, size_t, size_t>>& combos) {
    std::vector<std::tuple<size_t, size_t, size_t, size_t>> todo(combos.begin(), combos.end());
    std::vector<std::pair<const xsd::Schema*, const xsd::Schema*>> schemas;
    for (const auto& [sn, sv, tn, tv] : todo) {
      schemas.emplace_back(Schema(sn, sv), Schema(tn, tv));
      if (schemas.back().first != nullptr) (void)schemas.back().first->Flat();
      if (schemas.back().second != nullptr) (void)schemas.back().second->Flat();
    }
    std::vector<uint64_t> digests(todo.size(), 0);
    qmatch::ThreadPool pool(ReferenceWorkers());
    pool.ParallelFor(todo.size(), [&](size_t i) {
      if (schemas[i].first == nullptr || schemas[i].second == nullptr) return;
      const core::EngineMatchResult r =
          engine_->Match(*schemas[i].first, *schemas[i].second, core::EngineRequestOptions{});
      if (r.ok()) digests[i] = ResultDigest(r.result);
    });
    for (size_t i = 0; i < todo.size(); ++i) digests_[todo[i]] = digests[i];
  }

  uint64_t Digest(size_t sn, size_t sv, size_t tn, size_t tv) const {
    const auto it = digests_.find({sn, sv, tn, tv});
    return it == digests_.end() ? 0 : it->second;
  }

 private:
  const ServedInputs& in_;
  std::unique_ptr<core::MatchEngine> engine_;
  std::map<std::pair<size_t, size_t>, std::unique_ptr<xsd::Schema>> schemas_;
  std::map<std::tuple<size_t, size_t, size_t, size_t>, uint64_t> digests_;
};

/// The version each name holds after `requests` ran: SubmitSchema applies
/// in send order, so the last acknowledged one wins.
std::vector<size_t> FinalVersions(const std::vector<Request>& requests,
                                  std::vector<size_t> versions) {
  for (const Request& r : requests) {
    if (r.kind == Kind::kSubmit && r.answered && r.code == 0) versions[r.name] = r.version;
  }
  return versions;
}

/// Checks every answered request; fills per-request `ok`/typed/wrong
/// outcomes into `outcomes` (per step) and returns the version each
/// MatchPair's source and target resolved to (for the label report).
void CheckAnswers(const ServedInputs& in, const std::vector<Request>& requests,
                  const std::vector<size_t>& initial, std::vector<Outcome>* outcomes,
                  std::vector<std::pair<size_t, size_t>>* resolved, Reference* ref) {
  std::map<size_t, std::vector<const Request*>> submits;  // name -> in send order
  for (const Request& r : requests) {
    if (r.kind == Kind::kSubmit && r.issued) submits[r.name].push_back(&r);
  }
  static const std::vector<const Request*> kNone;
  auto subs = [&](size_t name) -> const std::vector<const Request*>& {
    const auto it = submits.find(name);
    return it == submits.end() ? kNone : it->second;
  };
  std::vector<std::pair<std::vector<size_t>, std::vector<size_t>>> cands(requests.size());
  std::set<std::tuple<size_t, size_t, size_t, size_t>> combos;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.kind != Kind::kMatchPair || !r.answered || r.code != 0) continue;
    const auto [sn, tn] = in.pairs[r.pair];
    cands[i] = {CandidateVersions(subs(sn), initial[sn], r.sent, r.recv),
                CandidateVersions(subs(tn), initial[tn], r.sent, r.recv)};
    for (size_t sv : cands[i].first) {
      for (size_t tv : cands[i].second) combos.insert({sn, sv, tn, tv});
    }
  }
  ref->Compute(combos);
  resolved->assign(requests.size(), {0, 0});
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (!r.issued) continue;
    Outcome& o = (*outcomes)[r.step];
    ++o.attempted;
    if (!r.answered) {
      ++o.typed["unanswered"];
      continue;
    }
    if (r.code != 0) {
      ++o.typed[CodeName(r.code)];
      continue;
    }
    bool good = false;
    if (r.kind == Kind::kSubmit) {
      const xsd::Schema* s = ref->Schema(r.name, r.version);
      good = s != nullptr && xsd::SchemaFingerprint(*s) == r.fingerprint &&
             s->NodeCount() == r.nodes;
    } else {
      const auto [sn, tn] = in.pairs[r.pair];
      for (size_t sv : cands[i].first) {
        for (size_t tv : cands[i].second) {
          if (!good && ref->Digest(sn, sv, tn, tv) == r.digest && r.digest != 0) {
            good = true;
            (*resolved)[i] = {sv, tv};
          }
        }
      }
      // The paper's PO pair has a fixed, published schema QoM.
      if (r.pair == 0 && r.qom_text != "0.931688888889") good = false;
    }
    if (good) {
      ++o.ok;
    } else {
      ++o.wrong;
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics per step
// ---------------------------------------------------------------------------

struct StepStats {
  LatencySummary reads;
  LatencySummary writes;
  double goodput = 0.0;
  double lag_mean_ms = 0.0;
  double lag_p99_ms = 0.0;
  bool backlog_grows = false;
  double rtt_read_ms = 0.0;
  double rtt_write_ms = 0.0;
  double rtt_all_ms = 0.0;
  size_t requests = 0;
};

StepStats Stats(const std::vector<Request>& requests, const Step& step, const Outcome& o) {
  StepStats s;
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<double> lags;
  double rtt_r = 0.0;
  double rtt_w = 0.0;
  for (size_t i = step.begin; i < step.end; ++i) {
    const Request& r = requests[i];
    if (!r.issued) continue;
    ++s.requests;
    lags.push_back(MsBetween(r.due, r.sent));
    if (!r.answered) continue;
    const double lat = MsBetween(r.due, r.recv);
    const double rtt = MsBetween(r.sent, r.recv);
    if (r.kind == Kind::kMatchPair) {
      reads.push_back(lat);
      rtt_r += rtt;
    } else {
      writes.push_back(lat);
      rtt_w += rtt;
    }
  }
  s.reads = Summarize(reads);
  s.writes = Summarize(writes);
  s.rtt_read_ms = reads.empty() ? 0.0 : rtt_r / static_cast<double>(reads.size());
  s.rtt_write_ms = writes.empty() ? 0.0 : rtt_w / static_cast<double>(writes.size());
  s.rtt_all_ms = reads.size() + writes.size() == 0
                     ? 0.0
                     : (rtt_r + rtt_w) / static_cast<double>(reads.size() + writes.size());
  // Completions per second from the step's start to its last answer.
  s.goodput = static_cast<double>(o.ok) / (MsBetween(step.start, step.stop) / 1000.0);
  double lag_sum = 0.0;
  for (double l : lags) lag_sum += l;
  s.lag_mean_ms = lags.empty() ? 0.0 : lag_sum / static_cast<double>(lags.size());
  std::sort(lags.begin(), lags.end());
  s.lag_p99_ms = lags.empty() ? 0.0 : lags[(lags.size() * 99) / 100];
  // The backlog grows when its mean over the step's last third exceeds its
  // mean over the first third by more than a tenth of the step's scheduled
  // requests (at least 2): a stall of the host for a few tens of
  // milliseconds stays below that, a sustained overload of ~15% or more
  // does not.
  double first = 0.0, last = 0.0;
  size_t nf = 0, nl = 0;
  const double span = step.seconds * 1000.0;
  for (const auto& [t, b] : step.backlog) {
    if (t < span / 3) {
      first += static_cast<double>(b);
      ++nf;
    } else if (t >= 2 * span / 3 && t < span) {
      last += static_cast<double>(b);
      ++nl;
    }
  }
  if (nf > 0 && nl > 0) {
    first /= static_cast<double>(nf);
    last /= static_cast<double>(nl);
    s.backlog_grows =
        last > first + std::max(2.0, 0.1 * static_cast<double>(step.end - step.begin));
  }
  return s;
}

/// Reads the server's net.request_ns histogram (sum in ns, count) from
/// /metrics through Client::GetMetrics.
bool ScrapeRequestHistogram(uint16_t port, double* sum_ns, double* count) {
  qmatch::Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return false;
  qmatch::Result<net::MetricsResp> m = client->GetMetrics();
  if (!m.ok()) return false;
  auto value = [&](const std::string& key) {
    const std::string& text = m->prometheus_text;
    const size_t pos = text.find("\n" + key + " ");
    return pos == std::string::npos ? 0.0 : std::atof(text.c_str() + pos + key.size() + 2);
  };
  *sum_ns = value("net_request_ns_sum");
  *count = value("net_request_ns_count");
  return true;
}

struct LadderRun {
  std::vector<Request> requests;
  std::vector<Step> steps;
  bool transport_ok = true;
};

/// One step to run: open loop at `rate` requests per second, or closed
/// loop (`depth` > 0).
struct StepPlan {
  double rate = 0.0;  // closed loop: 0 = as many requests as time allows
  size_t depth = 0;
  double seconds = 0.0;
  double write_share = kWriteShare;
};

/// Runs the steps in order on one set of connections.
template <typename Tick>
LadderRun RunSteps(const ServedInputs& in, const Args& args, uint64_t stream,
                   const std::vector<StepPlan>& plans, bool scrape, Tick on_tick) {
  LadderRun run;
  Rng rng(Mix(args.seed, stream));
  for (size_t s = 0; s < plans.size(); ++s) {
    Step step;
    step.rate = plans[s].rate;
    step.depth = plans[s].depth;
    step.seconds = plans[s].seconds;
    step.begin = run.requests.size();
    // A closed step without a rate runs until its time is up.
    const double schedule_rate =
        step.depth > 0 && step.rate == 0.0 ? kClosedScheduleRate : step.rate;
    ScheduleStep(in, &rng, s, schedule_rate, step.seconds, plans[s].write_share,
                 &run.requests);
    step.end = run.requests.size();
    run.steps.push_back(step);
  }
  Generator gen(in, in.server->port(), Connections());
  if (!gen.ok()) {
    run.transport_ok = false;
    return run;
  }
  for (Step& step : run.steps) {
    double sum0 = 0, cnt0 = 0, sum1 = 0, cnt1 = 0;
    if (scrape) ScrapeRequestHistogram(in.server->port(), &sum0, &cnt0);
    step.cache_before = in.engine->cache_stats();
    if (!gen.RunStep(run.requests, &step, [&](double into) { on_tick(step, into); })) {
      run.transport_ok = false;
      return run;
    }
    step.cache_after = in.engine->cache_stats();
    if (scrape) ScrapeRequestHistogram(in.server->port(), &sum1, &cnt1);
    step.server_sum_ns = sum1 - sum0;
    step.server_count = cnt1 - cnt0;
  }
  return run;
}

/// The closed loop, the write-only phase and the ladder, over `seconds`.
std::vector<StepPlan> ServedPlan(double seconds) {
  const double write_seconds = seconds * 0.05;
  std::vector<StepPlan> plans{
      {0.0, kReadDepth, seconds * 0.35, kWriteShare},
      {static_cast<double>(kWriteProbes) / write_seconds, kWriteDepth, write_seconds, 1.0}};
  for (double rate : kLadderRps) {
    plans.push_back({rate, 0, seconds * 0.6 / std::size(kLadderRps)});
  }
  return plans;
}

std::string StepJson(const Step& step, const StepStats& s, const Outcome& o, bool passes) {
  const double lookups = static_cast<double>(step.cache_after.hits + step.cache_after.misses -
                                             step.cache_before.hits - step.cache_before.misses);
  const double hits = static_cast<double>(step.cache_after.hits - step.cache_before.hits);
  return "{\"rate\": " + JsonNum(step.rate) + ", \"depth\": " + std::to_string(step.depth) +
         ", \"seconds\": " + JsonNum(step.seconds) +
         ", \"requests\": " + std::to_string(s.requests) +
         ", \"match_p50_ms\": " + JsonNum(s.reads.p50) +
         ", \"match_tail_ms\": " + JsonNum(s.reads.tail) +
         ", \"match_tail_percentile\": " + JsonNum(s.reads.tail_percentile) +
         ", \"match_samples\": " + std::to_string(s.reads.samples) +
         ", \"submit_p50_ms\": " + JsonNum(s.writes.p50) +
         ", \"submit_tail_ms\": " + JsonNum(s.writes.tail) +
         ", \"goodput\": " + JsonNum(s.goodput) +
         ", \"lag_p99_ms\": " + JsonNum(s.lag_p99_ms) +
         ", \"backlog_max\": " + std::to_string(step.backlog_max) +
         ", \"backlog_grows\": " + (s.backlog_grows ? "true" : "false") +
         ", \"saturated\": " + (step.saturated ? "true" : "false") +
         ", \"cache_hit_share\": " + JsonNum(lookups > 0 ? hits / lookups : 0.0) +
         ", \"passes\": " + (passes ? "true" : "false") +
         ", \"accounting\": " + o.ToJson() + "}";
}

}  // namespace

int RunServedMix(const Args& args) {
  std::vector<double> setup_times;
  ServedInputs in;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    in.server.reset();
    in = ServedInputs{};
    const Clock::time_point t0 = Clock::now();
    if (!BuildServed(args, &in)) {
      std::fprintf(stderr, "qbench: served-mix setup failed\n");
      return 1;
    }
    setup_times.push_back(MsSince(t0) / 1000.0);
  }
  const double total = static_cast<double>(args.seconds);
  auto no_tick = [](const Step&, double) {};

  // Step 0 is the closed loop, step 1 the write-only phase, then the ladder.
  const std::vector<size_t> initial(in.names.size(), 0);
  LadderRun run = RunSteps(in, args, 1, ServedPlan(args.trace ? total * 3 / 4 : total),
                           args.trace, no_tick);
  const double rss = PeakRssMb();
  if (!run.transport_ok) {
    std::fprintf(stderr, "qbench: served-mix transport failure\n");
    return 1;
  }
  // Traced runs then run the closed loop once more without /metrics
  // scrapes: the base of trace.overhead.
  LadderRun base;
  const std::vector<size_t> after_ladder = FinalVersions(run.requests, initial);
  if (args.trace) {
    base = RunSteps(in, args, 900, {{0.0, kReadDepth, total / 4, kWriteShare}}, false, no_tick);
    if (!base.transport_ok) return 1;
  }
  // Stop serving before the oracle so reference work never overlaps it.
  in.server->Stop();

  std::vector<Outcome> outcomes(run.steps.size());
  std::vector<std::pair<size_t, size_t>> resolved;
  Reference ref(in);
  CheckAnswers(in, run.requests, initial, &outcomes, &resolved, &ref);
  Outcome all;
  for (const Outcome& o : outcomes) all.Add(o);
  std::optional<LatencySummary> untraced_closed;
  if (args.trace) {
    std::vector<Outcome> o(1);
    std::vector<std::pair<size_t, size_t>> base_resolved;
    CheckAnswers(in, base.requests, after_ladder, &o, &base_resolved, &ref);
    all.Add(o[0]);
    untraced_closed = Stats(base.requests, base.steps[0], o[0]).reads;
  }

  // Step statistics and the ladder's verdicts.
  std::vector<StepStats> stats;
  double max_rate = 0.0;
  std::string steps_json;
  bool balanced = all.Balanced();
  for (size_t s = 0; s < run.steps.size(); ++s) {
    stats.push_back(Stats(run.requests, run.steps[s], outcomes[s]));
    const bool ladder = run.steps[s].depth == 0;
    const bool passes = outcomes[s].failed() == 0 && !stats[s].backlog_grows &&
                        !run.steps[s].saturated &&
                        stats[s].reads.tail <= args.latency_limit_ms;
    if (ladder && passes) max_rate = stats[s].goodput;
    balanced = balanced && outcomes[s].Balanced();
    if (!steps_json.empty()) steps_json += ", ";
    steps_json += StepJson(run.steps[s], stats[s], outcomes[s], passes);
    const std::string label =
        ladder   ? qmatch::StrFormat("step %.0f rps", run.steps[s].rate)
        : s == 0 ? std::string("closed loop")
                 : std::string("write-only closed loop");
    std::printf("%s: match p50 %.3f ms tail p%.2f %.3f ms (%zu), submit p50 %.3f ms, "
                "goodput %.1f/s, lag p99 %.3f ms, backlog max %zu%s%s%s\n",
                label.c_str(), stats[s].reads.p50, stats[s].reads.tail_percentile,
                stats[s].reads.tail, stats[s].reads.samples, stats[s].writes.p50,
                stats[s].goodput, stats[s].lag_p99_ms, run.steps[s].backlog_max,
                stats[s].backlog_grows ? " (backlog grows)" : "",
                run.steps[s].saturated ? " (saturated)" : "",
                ladder && !passes ? " FAILS" : "");
  }

  // Workload properties: cache-eligible share (same source and target
  // fingerprints requested before), write share, label-pair repeat share.
  LabelPairHistory history;
  std::set<std::tuple<size_t, size_t, size_t, size_t>> seen;
  size_t reads = 0, eligible = 0, writes = 0;
  std::vector<double> node_pairs;
  for (size_t i = 0; i < run.requests.size(); ++i) {
    const Request& r = run.requests[i];
    if (!r.issued) continue;
    if (r.kind == Kind::kSubmit) {
      ++writes;
      continue;
    }
    ++reads;
    const auto [sn, tn] = in.pairs[r.pair];
    const auto [sv, tv] = resolved[i];
    if (!seen.insert({sn, sv, tn, tv}).second) ++eligible;
    const xsd::Schema* s = ref.Schema(sn, sv);
    const xsd::Schema* t = ref.Schema(tn, tv);
    if (s == nullptr || t == nullptr) continue;
    history.BeginOperation();
    history.AddPair(s->Flat().labels, t->Flat().labels);
    node_pairs.push_back(static_cast<double>(s->NodeCount() * t->NodeCount()));
  }
  std::vector<double> schema_nodes;
  for (size_t n = 0; n < in.names.size(); ++n) {
    if (const xsd::Schema* s = ref.Schema(n, 0); s != nullptr && in.names[n].requestable) {
      schema_nodes.push_back(static_cast<double>(s->NodeCount()));
    }
  }
  const double repeat_share = history.MeanRepeatShare();
  const Step& closed = run.steps[0];
  const StepStats& cs = stats[0];
  const StepStats& ws = stats[1];
  const StepStats& ns = stats[kLadderBegin + kNominalStep];
  const size_t connections = Connections();
  PrintReport("{\"workload\": \"served-mix\", \"seed\": " + std::to_string(args.seed) +
              ", \"schemas\": " + std::to_string(in.names.size()) +
              ", \"requested_schema_nodes\": " + MinMedianMax(schema_nodes) +
              ", \"working_set_pairs\": " + std::to_string(in.pairs.size()) +
              ", \"node_pairs\": " + MinMedianMax(node_pairs) +
              ", \"zipf_exponent\": " + JsonNum(kZipfExponent) +
              ", \"cache_eligible_share\": " +
              JsonNum(reads == 0 ? 0.0 : static_cast<double>(eligible) / static_cast<double>(reads)) +
              ", \"write_share\": " +
              JsonNum(static_cast<double>(writes) / static_cast<double>(reads + writes)) +
              ", \"label_pair_repeat_share\": " + JsonNum(repeat_share) +
              ", \"latency_limit_ms\": " + JsonNum(args.latency_limit_ms) +
              ", \"load_threads\": 1, \"connections\": " + std::to_string(connections) +
              ", \"server_workers\": 2, \"engine_threads\": 1" +
              ", \"steps\": [" + steps_json + "], \"accounting\": " + all.ToJson() + "}");

  const bool correct = all.wrong == 0 && balanced && all.ok > 0;
  std::map<std::string, double> m;
  if (!args.trace) {
    m["setup_s"] = Median(setup_times);
    m["latency_ms_p50"] = cs.reads.p50;
    m["latency_ms_tail"] = cs.reads.tail;
    m["goodput_per_s"] = cs.goodput;
    m["success_share"] = all.attempted == 0 ? 0.0
                                            : static_cast<double>(all.ok) /
                                                  static_cast<double>(all.attempted);
    m["peak_rss_mb"] = rss;
    m["submit_ms_p50"] = ws.writes.p50;
    m["submit_ms_tail"] = ws.writes.tail;
    m["max_rate_rps"] = max_rate;
    return PrintResult(correct, all, m, false);
  }

  // --- per-layer values of the traced run (closed loop; SubmitSchema round
  // trips from the write-only phase; generator lag and backlog from the
  // ladder's nominal step) ---
  const double server_ms =
      closed.server_count > 0 ? closed.server_sum_ns / closed.server_count / 1e6 : 0.0;
  m["net.rtt_ms.match_pair"] = cs.rtt_read_ms;
  m["net.rtt_ms.submit_schema"] = ws.rtt_write_ms;
  m["net.server_ms"] = server_ms;
  m["net.overhead_ms"] = cs.rtt_all_ms - server_ms;
  m["net.generator_lag_ms"] = ns.lag_mean_ms;
  m["net.backlog_max"] =
      static_cast<double>(run.steps[kLadderBegin + kNominalStep].backlog_max);
  CacheMetrics(closed.cache_before, closed.cache_after, cs.requests, &m);
  m["lingua.label_pair_repeat_share"] = repeat_share;
  // Share of the phase's client spans the server histogram accounts for.
  m["trace.coverage"] = cs.requests == 0 ? 0.0
                                         : closed.server_count / static_cast<double>(cs.requests);
  m["trace.overhead"] = cs.reads.p50 - untraced_closed->p50;
  m["core.engine_self_ms"] = 0.0;  // the engine span is server-side here

  // Client spans: one per step, one per call (send to answer).
  Tracer tracer;
  for (const Step& step : run.steps) {
    const int step_span = tracer.Record("step", step.start, step.stop, -1, 0);
    for (size_t i = step.begin; i < step.end; ++i) {
      const Request& r = run.requests[i];
      if (!r.answered) continue;
      tracer.Record(r.kind == Kind::kSubmit ? "net.submit_schema" : "net.match_pair",
                    r.sent, r.recv, step_span, i);
    }
  }
  // In-process layers: replay, within a bounded time, the closed-loop
  // phase's MatchPair combinations not requested earlier in it (cache
  // misses) and its SubmitSchema texts.
  Replayer replayer(/*parallel=*/false);
  StageSample match_sum;
  StageSample write_sum;
  size_t replayed_matches = 0;
  size_t replayed_writes = 0;
  std::set<std::tuple<size_t, size_t, size_t, size_t>> replayed;
  const Clock::time_point budget = Clock::now() + std::chrono::milliseconds(args.seconds * 100);
  for (size_t i = closed.begin; i < closed.end && Clock::now() < budget; ++i) {
    const Request& r = run.requests[i];
    if (!r.answered || r.code != 0) continue;
    if (r.kind == Kind::kSubmit) {
      StageSample w;
      const int ps = tracer.Begin("xsd.parse", -1, i);
      xsd::ParseOptions po;
      po.schema_name = in.names[r.name].name;
      qmatch::Result<xsd::Schema> parsed =
          xsd::ParseSchema(in.names[r.name].versions[r.version], po);
      tracer.End(ps);
      w.parse_ms = tracer.DurationMs(ps);
      w.parse_calls = 1;
      if (parsed.ok()) {
        const int fs = tracer.Begin("xsd.flatten", -1, i);
        const xsd::FlatSchema flat = xsd::BuildFlatSchema(*parsed);
        tracer.End(fs);
        w.flatten_ms = tracer.DurationMs(fs);
        w.flatten_calls = 1;
      }
      write_sum.Add(w);
      ++replayed_writes;
      continue;
    }
    const auto [sn, tn] = in.pairs[r.pair];
    const auto [sv, tv] = resolved[i];
    if (!replayed.insert({sn, sv, tn, tv}).second) continue;
    const xsd::Schema* s = ref.Schema(sn, sv);
    const xsd::Schema* t = ref.Schema(tn, tv);
    if (s == nullptr || t == nullptr) continue;
    match_sum.Add(replayer.Replay(*s, *t, &tracer, -1, i));
    ++replayed_matches;
  }
  const double km = replayed_matches == 0 ? 0.0 : 1.0 / static_cast<double>(replayed_matches);
  const double kw = replayed_writes == 0 ? 0.0 : 1.0 / static_cast<double>(replayed_writes);
  m["xsd.parse_ms"] = write_sum.parse_ms * kw;
  m["xsd.parse_calls"] = static_cast<double>(write_sum.parse_calls) * kw;
  m["xsd.flatten_ms"] = write_sum.flatten_ms * kw;
  m["xsd.flatten_calls"] = static_cast<double>(write_sum.flatten_calls) * kw;
  m["lingua.label_matrix_ms"] = match_sum.label_ms * km;
  m["lingua.distinct_label_pairs"] = static_cast<double>(match_sum.label_pairs) * km;
  m["lingua.label_dedup_ratio"] =
      match_sum.node_pairs == 0 ? 0.0
                                : static_cast<double>(match_sum.label_pairs) /
                                      static_cast<double>(match_sum.node_pairs);
  m["match.fill_ms"] = match_sum.fill_ms * km;
  m["match.fill_rest_ms"] = (match_sum.fill_ms - match_sum.label_ms) * km;
  m["match.select_ms"] = match_sum.select_ms * km;
  m["core.analyze_ms"] = match_sum.analyze_ms * km;
  m["core.self_ms"] = match_sum.CoreSelfMs() * km;
  m["core.node_pairs"] = static_cast<double>(match_sum.node_pairs) * km;
  m["core.table_mb"] = static_cast<double>(match_sum.node_pairs) *
                       static_cast<double>(sizeof(qmatch::qom::PairQoM)) / (1024.0 * 1024.0) * km;
  tracer.WriteChromeTrace(ScratchDir(args, "trace-served-mix.json"));
  return PrintResult(correct, all, m, true);
}

// ---------------------------------------------------------------------------
// Open-loop honesty self-test
// ---------------------------------------------------------------------------

int RunHonestyCheck(const Args& args) {
  constexpr auto kStall = std::chrono::milliseconds(300);
  constexpr double kArmAtMs = 1000.0;
  ServedInputs in;
  if (!BuildServed(args, &in)) return 1;
  std::unique_ptr<qmatch::fault::ScopedFailpoint> stall;
  Clock::time_point armed_at;
  qmatch::fault::FaultSpec spec;
  spec.action = qmatch::fault::FaultAction::kDelay;
  spec.delay = kStall;
  spec.max_fires = 1;
  LadderRun run = RunSteps(in, args, 2, {{kLadderRps[kNominalStep], 0, 4.0, kWriteShare}}, false,
                            [&](const Step&, double into) {
                              if (stall == nullptr && into >= kArmAtMs) {
                                stall = std::make_unique<qmatch::fault::ScopedFailpoint>(
                                    "treematch.pair", spec);
                                armed_at = Clock::now();
                              }
                            });
  const uint64_t fires = stall != nullptr ? stall->stats().fires : 0;
  stall.reset();
  in.server->Stop();
  if (!run.transport_ok) return 1;
  std::vector<Outcome> outcomes(1);
  std::vector<std::pair<size_t, size_t>> resolved;
  Reference ref(in);
  CheckAnswers(in, run.requests, std::vector<size_t>(in.names.size(), 0), &outcomes,
               &resolved, &ref);
  const StepStats s = Stats(run.requests, run.steps[0], outcomes[0]);
  // The stalled request is the slowest one. Every request sent behind it on
  // its connection while it stalled must carry the wait, measured from its
  // due time, and must have been sent on time.
  const Request* stalled = nullptr;
  for (const Request& r : run.requests) {
    if (r.answered && (stalled == nullptr ||
                       MsBetween(r.due, r.recv) > MsBetween(stalled->due, stalled->recv))) {
      stalled = &r;
    }
  }
  const double stall_ms = static_cast<double>(kStall.count());
  const double max_latency = stalled == nullptr ? 0.0 : MsBetween(stalled->due, stalled->recv);
  size_t behind = 0;
  size_t charged = 0;
  double behind_lag_max = 0.0;
  for (const Request& r : run.requests) {
    if (stalled == nullptr || !r.answered || &r == stalled || r.conn != stalled->conn ||
        r.sent <= stalled->sent || r.sent >= stalled->recv) {
      continue;
    }
    ++behind;
    if (MsBetween(r.due, r.recv) >= MsBetween(r.due, stalled->recv)) ++charged;
    behind_lag_max = std::max(behind_lag_max, MsBetween(r.due, r.sent));
  }
  const bool pass = fires == 1 && outcomes[0].wrong == 0 && outcomes[0].Balanced() &&
                    max_latency >= stall_ms && behind >= 2 && charged == behind &&
                    behind_lag_max < stall_ms / 10 && s.lag_mean_ms < 1.0;
  std::printf("honesty: fires=%llu max_latency_ms=%.3f behind=%zu charged=%zu "
              "behind_lag_max_ms=%.3f lag_mean_ms=%.3f lag_p99_ms=%.3f accounting=%s -> %s\n",
              static_cast<unsigned long long>(fires), max_latency, behind, charged,
              behind_lag_max, s.lag_mean_ms, s.lag_p99_ms, outcomes[0].ToJson().c_str(),
              pass ? "PASS" : "FAIL");
  std::printf("{\"honesty\": %s, \"fires\": %llu, \"max_latency_ms\": %s, \"behind\": %zu, "
              "\"charged\": %zu, \"behind_lag_max_ms\": %s, \"lag_mean_ms\": %s}\n",
              pass ? "true" : "false", static_cast<unsigned long long>(fires),
              JsonNum(max_latency).c_str(), behind, charged, JsonNum(behind_lag_max).c_str(),
              JsonNum(s.lag_mean_ms).c_str());
  return pass ? 0 : 1;
}

}  // namespace qbench
