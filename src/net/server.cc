#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "fault/failpoint.h"
#include "net/client.h"
#include "obs/obs.h"
#include "persist/epoch.h"
#include "persist/snapshot.h"
#include "replica/log.h"
#include "replica/wire.h"
#include "xsd/schema.h"

namespace qmatch::net {

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Decoded-but-unstarted frames a single connection may queue while one of
/// its requests executes (responses are written in request order, so
/// pipelined frames wait their turn). Past the cap each extra frame is
/// answered with a typed kResourceExhausted, in its place in the request
/// order — never a dropped connection.
constexpr size_t kMaxPipelineDepth = 256;

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

std::string_view RoleName(Role role) {
  switch (role) {
    case Role::kPrimary:
      return "primary";
    case Role::kStandby:
      return "standby";
    case Role::kDraining:
      return "draining";
  }
  return "unknown";
}

/// Per-connection state machine, owned by the loop thread. Lifecycle:
/// reading frames -> (pipeline queue) -> executing on a worker ->
/// response flushed -> reading again; `closing` drains the output buffer
/// and then closes (set after a framing violation or an HTTP scrape).
struct Server::Connection {
  uint64_t id = 0;
  int fd = -1;
  std::string in;
  std::string out;
  /// First bytes were "GET ": this is a one-shot HTTP request.
  bool http = false;
  /// Stop reading; close as soon as `out` drains.
  bool closing = false;
  /// A request of this connection is executing on the worker pool.
  bool busy = false;
  /// Subscribed to the replication stream: push-mode for the rest of its
  /// life, exempt from the idle timeout.
  bool replica = false;
  /// Next log sequence this subscriber is owed.
  uint64_t replica_next_seq = 0;
  /// Decoded requests awaiting their turn, in arrival order. An entry
  /// without a frame stands for a request refused past kMaxPipelineDepth:
  /// its typed refusal is answered in order, like any other response.
  std::deque<std::optional<Frame>> pending;
  /// Entries of `pending` that hold a frame (the pipeline depth).
  size_t pending_frames = 0;
  TimerWheel::TimerId idle_timer = 0;
};

Server::Server(core::MatchEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      role_(static_cast<uint32_t>(options_.role)) {
  // Epoch 0 never exists on the wire from this server: 0 is the "epoch
  // unaware" sentinel in heads and subscribe requests.
  const uint64_t floor = options_.epoch > 0 ? options_.epoch : 1;
  epoch_.store(floor, std::memory_order_release);
  epoch_seen_.store(floor, std::memory_order_release);
  peer_host_ = options_.peer_host;
  peer_port_ = options_.peer_port;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!loop_.ok()) return Status::Internal("event loop failed to initialise");
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparseable bind address: " +
                                   options_.bind_address);
  }
  // EADDRINUSE is retried with a short backoff: a restart racing its
  // predecessor's lingering socket (or a failover pair swapping a port)
  // waits the old owner out instead of dying. SO_REUSEADDR above already
  // forgives TIME_WAIT; the retry loop forgives a still-open listener.
  int rc = -1;
  for (size_t attempt = 0;; ++attempt) {
    rc = bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc == 0 || errno != EADDRINUSE || attempt >= options_.bind_retries) {
      break;
    }
    QMATCH_COUNTER_ADD("net.bind_retries", 1);
    std::this_thread::sleep_for(options_.bind_retry_backoff);
  }
  if (rc != 0) {
    const Status status = ErrnoStatus("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, 128) != 0) {
    const Status status = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  // The persisted epoch floors the configured one: a restarted process
  // resumes at least at the epoch it last promoted to, so a crash between
  // promotion and the first request cannot resurrect a stale epoch. A
  // corrupt file is counted and the configured floor kept — "unknown"
  // must never read as 0.
  if (!options_.epoch_dir.empty()) {
    Result<uint64_t> persisted = persist::LoadEpoch(options_.epoch_dir);
    if (persisted.ok()) {
      if (persisted.value() > epoch_.load(std::memory_order_acquire)) {
        epoch_.store(persisted.value(), std::memory_order_release);
        epoch_seen_.store(persisted.value(), std::memory_order_release);
      }
    } else {
      QMATCH_COUNTER_ADD("net.epoch_load_failures", 1);
    }
  }
  QMATCH_GAUGE_SET("net.epoch", static_cast<int64_t>(
                                    epoch_.load(std::memory_order_acquire)));

  workers_ = std::make_unique<ThreadPool>(
      options_.request_threads > 0 ? options_.request_threads : 1);
  QMATCH_RETURN_IF_ERROR(
      loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAccept(); }));
  running_.store(true, std::memory_order_release);
  QMATCH_GAUGE_SET("net.role", static_cast<int64_t>(role_.load()));
  loop_thread_ = std::thread([this] { loop_.Run(); });
  if (options_.replication_log != nullptr) {
    // New appends wake every subscriber via the loop mailbox; the listener
    // runs under the log's mutex, so it must only Post (Post is
    // thread-safe and discards after Stop).
    options_.replication_log->SetListener(
        [this](uint64_t) { loop_.Post([this] { PumpAllReplicas(); }); });
    loop_.Post([this] { ArmReplicaHeartbeat(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (stopped_.exchange(true)) return;
  // Detach the replication listener first: SetListener(nullptr) blocks on
  // the log mutex until any in-flight notification returns, so no Post
  // races the shutdown below.
  if (options_.replication_log != nullptr) {
    options_.replication_log->SetListener(nullptr);
  }
  running_.store(false, std::memory_order_release);
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop thread is gone: its state is safe to finalise from here.
  for (auto& [id, conn] : connections_) {
    if (conn->fd >= 0) close(conn->fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_GAUGE_ADD("net.connections", -1);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Joins in-flight request executions; their completions land in the
  // stopped loop's mailbox and are discarded with it.
  workers_.reset();
}

Status Server::Drain(std::chrono::milliseconds deadline) {
  const steady_clock::time_point until = steady_clock::now() + deadline;
  QMATCH_COUNTER_ADD("net.drains", 1);
  // Stop accepting and demote: queued-but-unstarted engine work answers
  // typed kUnavailable from here on, /readyz flips to 503, and in-flight
  // requests run to completion.
  loop_.Post([this] {
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    SetRole(Role::kDraining);
  });
  // Quiescence is loop-owned state, so each probe is a Posted read. A
  // broken promise (loop stopped underneath us) ends the wait.
  while (true) {
    auto probe = std::make_shared<std::promise<bool>>();
    std::future<bool> verdict = probe->get_future();
    loop_.Post([this, probe] {
      bool idle = true;
      for (const auto& [id, conn] : connections_) {
        if (conn->busy || !conn->pending.empty() || !conn->out.empty()) {
          idle = false;
          break;
        }
      }
      probe->set_value(idle);
    });
    bool idle = false;
    if (verdict.wait_until(until) != std::future_status::ready) break;
    try {
      idle = verdict.get();
    } catch (const std::future_error&) {
      break;  // loop stopped: the Post was discarded unrun
    }
    if (idle) return Status::OK();
    if (steady_clock::now() >= until) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  QMATCH_COUNTER_ADD("net.drain_deadline_exceeded", 1);
  return Status::DeadlineExceeded("drain deadline expired with work in flight");
}

void Server::SetRole(Role role) {
  // kDraining is terminal: a SIGUSR1 promote that loses the race against a
  // SIGTERM drain must not resurrect the server as primary. The CAS loop
  // re-checks on contention so Drain always wins.
  uint32_t current = role_.load(std::memory_order_acquire);
  do {
    if (static_cast<Role>(current) == Role::kDraining &&
        role != Role::kDraining) {
      QMATCH_COUNTER_ADD("net.role_changes_refused", 1);
      return;
    }
  } while (!role_.compare_exchange_weak(current, static_cast<uint32_t>(role),
                                        std::memory_order_acq_rel));
  QMATCH_COUNTER_ADD("net.role_changes", 1);
  QMATCH_GAUGE_SET("net.role", static_cast<int64_t>(role));
}

Status Server::AdoptEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  if (epoch <= epoch_.load(std::memory_order_acquire)) return Status::OK();
  // Persist BEFORE the in-memory epoch moves: a crash after the write but
  // before the store restarts at the new epoch (safe — an epoch may be
  // skipped, never reused), a crash before the write restarts at the old
  // one having claimed nothing. A failed write is counted but does not
  // veto adoption: refusing to fence on a full disk would trade split-brain
  // safety for nothing (the winner's epoch is already on the wire).
  Status persisted = Status::OK();
  if (!options_.epoch_dir.empty()) {
    persisted = persist::SaveEpoch(options_.epoch_dir, epoch);
    if (!persisted.ok()) QMATCH_COUNTER_ADD("net.epoch_persist_failures", 1);
  }
  epoch_.store(epoch, std::memory_order_release);
  uint64_t seen = epoch_seen_.load(std::memory_order_acquire);
  while (seen < epoch && !epoch_seen_.compare_exchange_weak(
                             seen, epoch, std::memory_order_acq_rel)) {
  }
  // Catching up to (or past) the winning epoch lifts the fence.
  const uint64_t winner = fenced_by_.load(std::memory_order_acquire);
  if (winner != 0 && epoch >= winner) {
    fenced_by_.store(0, std::memory_order_release);
  }
  QMATCH_GAUGE_SET("net.epoch", static_cast<int64_t>(epoch));
  return persisted;
}

void Server::ObserveEpoch(uint64_t epoch) {
  if (epoch == 0) return;  // epoch-unaware peer: nothing learned
  uint64_t seen = epoch_seen_.load(std::memory_order_acquire);
  while (epoch > seen && !epoch_seen_.compare_exchange_weak(
                             seen, epoch, std::memory_order_acq_rel)) {
  }
  if (epoch <= epoch_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  if (epoch <= epoch_.load(std::memory_order_acquire)) return;
  // A higher epoch exists: this server is fenced until AdoptEpoch catches
  // up. A fenced primary self-demotes immediately — it refuses mutable
  // work typed and severs its subscribers (it must not re-anchor a standby
  // at the stale epoch).
  uint64_t winner = fenced_by_.load(std::memory_order_acquire);
  while (epoch > winner && !fenced_by_.compare_exchange_weak(
                               winner, epoch, std::memory_order_acq_rel)) {
  }
  if (role() == Role::kPrimary) {
    self_demotions_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("net.self_demotions", 1);
    SetRole(Role::kStandby);
    loop_.Post([this] { CloseAllReplicas(); });
  }
}

void Server::SetPeer(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(peer_mutex_);
  peer_host_ = host;
  peer_port_ = port;
}

ResponseHead Server::MakeHead(const Status& status) const {
  ResponseHead head = ResponseHead::FromStatus(status);
  head.epoch = epoch();
  return head;
}

bool Server::Ready() const {
  switch (role()) {
    case Role::kPrimary:
      return running();
    case Role::kStandby: {
      // Ready only while the stream is live and the standby is caught up
      // within the configured record bound — a stale standby answering
      // reads would violate the bit-identical failover contract.
      if (!replica_connected_.load(std::memory_order_acquire)) return false;
      const uint64_t head = replica_head_.load(std::memory_order_relaxed);
      const uint64_t applied = replica_applied_.load(std::memory_order_relaxed);
      const uint64_t lag = head > applied ? head - applied : 0;
      return lag <= options_.ready_lag_records;
    }
    case Role::kDraining:
      return false;
  }
  return false;
}

void Server::SetReplicaStatus(uint64_t applied_seq, uint64_t head_seq,
                              bool connected) {
  replica_applied_.store(applied_seq, std::memory_order_relaxed);
  replica_head_.store(head_seq, std::memory_order_relaxed);
  replica_connected_.store(connected, std::memory_order_release);
  QMATCH_OBS_ONLY(const uint64_t lag =
                      head_seq > applied_seq ? head_seq - applied_seq : 0;)
  QMATCH_GAUGE_SET("replica.lag_records", static_cast<int64_t>(lag));
}

Status Server::RegisterSchema(const std::string& name,
                              std::string_view xsd_text, bool replicated) {
  if (name.empty()) {
    return Status::InvalidArgument("schema name must be non-empty");
  }
  xsd::ParseOptions parse = options_.parse;
  parse.schema_name = name;
  Result<xsd::Schema> schema = xsd::ParseSchema(xsd_text, parse);
  if (!schema.ok()) return schema.status();
  auto shared = std::make_shared<const xsd::Schema>(std::move(*schema));
  {
    std::lock_guard<std::mutex> lock(schemas_mutex_);
    schemas_[name] = SchemaEntry{std::move(shared), std::string(xsd_text)};
  }
  // A replicated registration must not echo back into the stream — the
  // standby applies records, it does not originate them.
  if (!replicated && options_.schema_observer) {
    options_.schema_observer(name, std::string(xsd_text));
  }
  return Status::OK();
}

size_t Server::schema_count() const {
  std::lock_guard<std::mutex> lock(schemas_mutex_);
  return schemas_.size();
}

std::vector<std::pair<std::string, std::string>> Server::ExportSchemas()
    const {
  std::lock_guard<std::mutex> lock(schemas_mutex_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(schemas_.size());
  for (const auto& [name, entry] : schemas_) {
    out.emplace_back(name, entry.xsd_text);
  }
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.http_metrics = http_metrics_.load(std::memory_order_relaxed);
  s.replica_subscribers = replica_subscribers_.load(std::memory_order_relaxed);
  s.self_demotions = self_demotions_.load(std::memory_order_relaxed);
  s.stale_refusals = stale_refusals_.load(std::memory_order_relaxed);
  return s;
}

// --- loop thread -----------------------------------------------------------

void Server::OnAccept() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for the next wakeup
    }
    // Chaos handle: a fired net.accept drops this connection at the
    // threshold — the daemon itself must shrug it off.
    if (QMATCH_FAILPOINT_FIRED("net.accept")) {
      QMATCH_COUNTER_ADD("net.accept_faults", 1);
      close(fd);
      continue;
    }
    if (connections_.size() >= options_.max_connections) {
      QMATCH_COUNTER_ADD("net.accept_rejected", 1);
      close(fd);
      continue;
    }
    const int enable = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    const uint64_t conn_id = conn->id;
    Connection* raw = conn.get();
    connections_.emplace(conn_id, std::move(conn));
    const Status added = loop_.Add(
        fd, EPOLLIN, [this, conn_id](uint32_t ev) {
          OnConnectionEvent(conn_id, ev);
        });
    if (!added.ok()) {
      close(fd);
      connections_.erase(conn_id);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("net.accepted", 1);
    QMATCH_GAUGE_ADD("net.connections", 1);
    ArmIdleTimer(raw);
  }
}

Server::Connection* Server::FindConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void Server::OnConnectionEvent(uint64_t conn_id, uint32_t events) {
  Connection* conn = FindConnection(conn_id);
  if (conn == nullptr) return;
  if ((events & EPOLLOUT) != 0) {
    FlushConnection(conn);
    conn = FindConnection(conn_id);
    if (conn == nullptr) return;
  }
  // Readable data is drained before a HUP is honoured: a peer that wrote a
  // request and disconnected immediately still gets its frame dispatched
  // (read() returns the bytes first, then 0).
  if ((events & EPOLLIN) != 0) {
    ReadConnection(conn);
    return;
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) CloseConnection(conn_id);
}

void Server::ReadConnection(Connection* conn) {
  const uint64_t conn_id = conn->id;
  // Chaos handle: a fired net.read is a fatal socket error on this
  // connection (the peer sees a close; in-flight requests still count
  // their outcomes when they complete).
  if (QMATCH_FAILPOINT_FIRED("net.read")) {
    QMATCH_COUNTER_ADD("net.read_faults", 1);
    CloseConnection(conn_id);
    return;
  }
  // Partition injection, client class: ordinary request connections are
  // severed while the replica stream (push-mode, never read again) lives
  // on — the inverse of net.partition.replica.
  if (!conn->replica && QMATCH_FAILPOINT_FIRED("net.partition.client")) {
    QMATCH_COUNTER_ADD("net.partition_drops", 1);
    CloseConnection(conn_id);
    return;
  }
  bool peer_closed = false;
  while (true) {
    char buf[65536];
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn_id);
    return;
  }
  ArmIdleTimer(conn);
  ProcessInput(conn);
  conn = FindConnection(conn_id);
  if (conn == nullptr) return;
  if (peer_closed) {
    // Mid-request disconnect: drop the connection now; any executing
    // request completes on the workers, counts its outcome, and its
    // response is discarded when the completion finds no connection.
    CloseConnection(conn_id);
  }
}

void Server::ProcessInput(Connection* conn) {
  const uint64_t conn_id = conn->id;
  while (!conn->closing) {
    if (conn->http) {
      ServeHttp(conn);
      return;
    }
    if (conn->in.size() >= 4 && conn->in.compare(0, 4, "GET ") == 0) {
      conn->http = true;
      continue;
    }
    if (conn->in.size() < 8) break;  // fall through to dispatch+flush
    // Chaos handle: a fired net.frame corrupts this decode — the peer gets
    // the same typed error frame real corruption would produce.
    if (QMATCH_FAILPOINT_FIRED("net.frame")) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      QMATCH_COUNTER_ADD("net.bad_frames", 1);
      SendFrame(conn, EncodeFrame(MsgType::kErrorResp,
                                  EncodeErrorResp(MakeHead(Status::DataLoss(
                                      "frame fault injected")))));
      conn->closing = true;
      break;
    }
    Frame frame;
    size_t consumed = 0;
    const FrameDecodeResult decoded = DecodeFrame(conn->in, &frame, &consumed);
    if (decoded == FrameDecodeResult::kNeedMore) break;
    if (decoded == FrameDecodeResult::kBadLength ||
        decoded == FrameDecodeResult::kBadCrc) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      QMATCH_COUNTER_ADD("net.bad_frames", 1);
      const Status status =
          decoded == FrameDecodeResult::kBadLength
              ? Status::InvalidArgument("frame length exceeds protocol cap")
              : Status::DataLoss("frame crc mismatch");
      SendFrame(conn, EncodeFrame(MsgType::kErrorResp,
                                  EncodeErrorResp(MakeHead(status))));
      // The byte stream cannot be resynchronised past a framing violation:
      // answer typed, then close after the flush.
      conn->closing = true;
      break;
    }
    conn->in.erase(0, consumed);
    if (conn->pending_frames >= kMaxPipelineDepth) {
      conn->pending.emplace_back(std::nullopt);
      continue;
    }
    conn->pending.emplace_back(std::move(frame));
    ++conn->pending_frames;
  }
  conn = FindConnection(conn_id);
  if (conn == nullptr) return;
  MaybeDispatchNext(conn);
  FlushConnection(conn);
}

void Server::ServeHttp(Connection* conn) {
  const size_t end = conn->in.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (conn->in.size() > 8192) CloseConnection(conn->id);
    return;  // headers still arriving
  }
  // Request line: "GET <path> HTTP/1.x". Anything unparseable keeps the
  // historical any-GET-serves-metrics behaviour.
  std::string path = "/metrics";
  const std::string_view line(conn->in.data(), conn->in.find("\r\n"));
  const size_t sp1 = line.find(' ');
  if (sp1 != std::string_view::npos) {
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      path.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
    }
  }
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  int status = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics" || path == "/") {
    http_metrics_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("net.http_metrics", 1);
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = obs::Registry::Global().PrometheusText();
  } else if (path == "/healthz") {
    // Liveness: the process answered, so it is alive — role is
    // informational. A draining server is alive and not ready.
    QMATCH_COUNTER_ADD("net.http_healthz", 1);
    body = "ok role=" + std::string(RoleName(role())) +
           " epoch=" + std::to_string(epoch()) + "\n";
  } else if (path == "/readyz") {
    // Readiness: should a load balancer route traffic here right now?
    QMATCH_COUNTER_ADD("net.http_readyz", 1);
    const RoleResp state = BuildRole();
    const bool ready = state.ready != 0;
    if (!ready) {
      status = 503;
      reason = "Service Unavailable";
    }
    body = std::string(ready ? "ready" : "unready") + " role=" +
           std::string(RoleName(static_cast<Role>(state.role))) +
           " epoch=" + std::to_string(state.head.epoch) +
           " lag_records=" + std::to_string(state.lag_records) +
           " applied_seq=" + std::to_string(state.applied_seq) +
           " head_seq=" + std::to_string(state.head_seq) + "\n";
  } else {
    status = 404;
    reason = "Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  conn->out.append(response);
  conn->closing = true;
  FlushConnection(conn);
}

void Server::MaybeDispatchNext(Connection* conn) {
  // Responses go out in request order: one executing request per
  // connection; cheap requests answer inline and the loop continues.
  while (!conn->busy && !conn->pending.empty() && !conn->closing) {
    std::optional<Frame> frame = std::move(conn->pending.front());
    conn->pending.pop_front();
    if (!frame.has_value()) {
      const Status status =
          Status::ResourceExhausted("pipeline depth exceeded");
      CountOutcome(status);
      SendFrame(conn, EncodeFrame(MsgType::kErrorResp,
                                  EncodeErrorResp(MakeHead(status))));
      continue;
    }
    --conn->pending_frames;
    DispatchFrame(conn, std::move(*frame));
  }
}

void Server::DispatchFrame(Connection* conn, Frame frame) {
  const uint64_t conn_id = conn->id;
  // A decodable-but-rejectable request still answers a typed frame;
  // kErrorResp carries a bare ResponseHead so the client needs no
  // per-request body to learn the status.
  const auto reject = [&](const Status& status) {
    CountOutcome(status);
    SendFrame(conn, EncodeFrame(MsgType::kErrorResp,
                                EncodeErrorResp(MakeHead(status))));
  };
  // A fenced server (it observed a higher epoch) answers with the winning
  // epoch in the message AND its own epoch in the head — the client learns
  // where to go, and never mistakes this endpoint for current.
  const auto reject_stale = [&](uint64_t winner) {
    stale_refusals_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("net.stale_refusals", 1);
    reject(Status::Unavailable(
        "stale_epoch: epoch=" + std::to_string(epoch()) +
        " winner_epoch=" + std::to_string(winner)));
  };
  // Engine work runs only on a primary: a standby's state is replicated,
  // not owned, and a draining server is shedding. The rejection is typed
  // kUnavailable BEFORE any work runs, so a client may safely retry it
  // against another endpoint whatever the request type.
  const auto require_primary = [&]() {
    const uint64_t winner = fenced_by_.load(std::memory_order_acquire);
    if (winner != 0) {
      reject_stale(winner);
      return false;
    }
    const Role r = role();
    if (r == Role::kPrimary) return true;
    reject(Status::Unavailable("not primary: role=" +
                               std::string(RoleName(r))));
    return false;
  };
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kSubmitSchema: {
      if (!require_primary()) return;
      SubmitSchemaReq req;
      if (!DecodeSubmitSchemaReq(frame.payload, &req)) {
        reject(Status::InvalidArgument("undecodable SubmitSchema payload"));
        return;
      }
      conn->busy = true;
      workers_->Submit([this, conn_id, req = std::move(req)]() mutable {
        ExecuteSubmitSchema(conn_id, std::move(req));
      });
      return;
    }
    case MsgType::kMatchPair: {
      if (!require_primary()) return;
      MatchPairReq req;
      if (!DecodeMatchPairReq(frame.payload, &req)) {
        reject(Status::InvalidArgument("undecodable MatchPair payload"));
        return;
      }
      conn->busy = true;
      workers_->Submit([this, conn_id, req = std::move(req)]() mutable {
        ExecuteMatchPair(conn_id, std::move(req));
      });
      return;
    }
    case MsgType::kMatchCorpus: {
      if (!require_primary()) return;
      MatchCorpusReq req;
      if (!DecodeMatchCorpusReq(frame.payload, &req)) {
        reject(Status::InvalidArgument("undecodable MatchCorpus payload"));
        return;
      }
      conn->busy = true;
      workers_->Submit([this, conn_id, req = std::move(req)]() mutable {
        ExecuteMatchCorpus(conn_id, std::move(req));
      });
      return;
    }
    case MsgType::kGetStats: {
      CountOutcome(Status::OK());
      SendFrame(conn, EncodeFrame(MsgType::kGetStatsResp,
                                  EncodeStatsResp(BuildStats())));
      return;
    }
    case MsgType::kGetMetrics: {
      MetricsResp resp;
      resp.head.epoch = epoch();
      resp.prometheus_text = obs::Registry::Global().PrometheusText();
      CountOutcome(Status::OK());
      SendFrame(conn, EncodeFrame(MsgType::kGetMetricsResp,
                                  EncodeMetricsResp(resp)));
      return;
    }
    case MsgType::kHealth: {
      // Answered inline by every role, draining included: if the process
      // can speak the protocol, it is alive.
      HealthResp resp;
      resp.head.epoch = epoch();
      resp.role = static_cast<uint32_t>(role());
      CountOutcome(Status::OK());
      SendFrame(conn, EncodeFrame(MsgType::kHealthResp,
                                  EncodeHealthResp(resp)));
      return;
    }
    case MsgType::kRole: {
      CountOutcome(Status::OK());
      SendFrame(conn,
                EncodeFrame(MsgType::kRoleResp, EncodeRoleResp(BuildRole())));
      return;
    }
    case MsgType::kReplicaSubscribe: {
      // Partition injection: the replica-class link is severed — the
      // subscription dies like a cut cable (no response), while client
      // connections on the same server keep working.
      if (QMATCH_FAILPOINT_FIRED("net.partition.replica")) {
        QMATCH_COUNTER_ADD("net.partition_drops", 1);
        conn->closing = true;
        return;
      }
      if (options_.replication_log == nullptr) {
        reject(Status::Unavailable("replication not enabled on this server"));
        return;
      }
      replica::SubscribeReq req;
      if (!replica::DecodeSubscribeReq(frame.payload, &req)) {
        reject(Status::InvalidArgument("undecodable Subscribe payload"));
        return;
      }
      // The handshake is one of the three demotion triggers: a subscriber
      // arriving from a higher epoch fences this server before any reply.
      ObserveEpoch(req.epoch);
      const uint64_t winner = fenced_by_.load(std::memory_order_acquire);
      if (winner != 0) {
        reject_stale(winner);
        return;
      }
      if (req.epoch != 0 && req.epoch < epoch()) {
        // A promoted server never anchors a lower epoch: the subscriber
        // reads the head's (higher) epoch, adopts it and resubscribes.
        reject_stale(epoch());
        return;
      }
      CountOutcome(Status::OK());
      conn->replica = true;
      conn->replica_next_seq = req.from_seq == 0 ? 1 : req.from_seq;
      // Push-mode from here on: the subscriber never writes again, so the
      // idle timeout no longer applies.
      if (conn->idle_timer != 0) {
        loop_.timers().Cancel(conn->idle_timer);
        conn->idle_timer = 0;
      }
      replica_subscribers_.fetch_add(1, std::memory_order_relaxed);
      QMATCH_COUNTER_ADD("net.replica_subscribers", 1);
      PumpReplica(conn);
      return;
    }
    default:
      reject(Status::InvalidArgument("unknown request type " +
                                     std::to_string(frame.type)));
      return;
  }
}

void Server::PumpReplica(Connection* conn) {
  replica::ReplicationLog* log = options_.replication_log;
  if (log == nullptr || !conn->replica || conn->closing) return;
  // A fenced server never re-anchors a standby at its stale epoch: the
  // link is cut and the subscriber finds the winner through its endpoints.
  if (fenced()) {
    conn->closing = true;
    return;
  }
  while (true) {
    std::vector<replica::LogRecord> batch;
    if (!log->Fetch(conn->replica_next_seq, options_.replica_batch_records,
                    &batch)) {
      // The subscriber predates the log's retained window: anchor it with
      // a full snapshot. The sequence is captured BEFORE the state export,
      // so records racing the export overlap the snapshot and replay
      // idempotently (last-wins, same as journal-over-snapshot recovery).
      replica::SnapshotMsg snap;
      snap.next_seq = log->head_seq() + 1;
      snap.epoch = epoch();
      std::vector<std::pair<std::string, std::string>> schemas =
          ExportSchemas();
      snap.schemas.reserve(schemas.size());
      for (auto& [name, xsd_text] : schemas) {
        snap.schemas.push_back(
            replica::SchemaRec{std::move(name), std::move(xsd_text)});
      }
      const persist::StoreState state = engine_->ExportState();
      snap.cache_payloads.reserve(state.cache_entries.size());
      for (const persist::CacheEntryRec& rec : state.cache_entries) {
        snap.cache_payloads.push_back(persist::EncodeCacheRecordPayload(rec));
      }
      snap.corpus_payloads.reserve(state.corpus_entries.size());
      for (const persist::CorpusEntryRec& rec : state.corpus_entries) {
        snap.corpus_payloads.push_back(persist::EncodeCorpusRecordPayload(rec));
      }
      std::string payload = replica::EncodeSnapshotMsg(snap);
      if (payload.size() > kMaxFramePayload) {
        // Unshippable state: close rather than send a frame the peer is
        // obliged to reject.
        QMATCH_COUNTER_ADD("replica.snapshot_oversize", 1);
        conn->closing = true;
        return;
      }
      conn->replica_next_seq = snap.next_seq;
      QMATCH_COUNTER_ADD("replica.snapshots_sent", 1);
      SendFrame(conn, EncodeFrame(MsgType::kReplicaSnapshot, payload));
      continue;  // records from next_seq may already be waiting
    }
    if (batch.empty()) return;  // caught up
    replica::RecordsMsg msg;
    msg.head_seq = log->head_seq();
    msg.epoch = epoch();
    conn->replica_next_seq = batch.back().seq + 1;
    msg.records = std::move(batch);
    std::string payload = replica::EncodeRecordsMsg(msg);
    if (payload.size() > kMaxFramePayload) {
      QMATCH_COUNTER_ADD("replica.batch_oversize", 1);
      conn->closing = true;
      return;
    }
    QMATCH_COUNTER_ADD("replica.records_sent", msg.records.size());
    SendFrame(conn, EncodeFrame(MsgType::kReplicaRecords, payload));
  }
}

void Server::PumpAllReplicas() {
  // Ids first: PumpReplica appends output and FlushConnection may close
  // (erasing from connections_), so the map is never iterated live.
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) {
    if (conn->replica) ids.push_back(id);
  }
  for (const uint64_t id : ids) {
    Connection* conn = FindConnection(id);
    if (conn == nullptr) continue;
    PumpReplica(conn);
    conn = FindConnection(id);
    if (conn != nullptr) FlushConnection(conn);
  }
}

void Server::ArmReplicaHeartbeat() {
  if (options_.replica_heartbeat.count() <= 0) return;
  heartbeat_timer_ =
      loop_.timers().ScheduleAfter(options_.replica_heartbeat, [this] {
        replica::ReplicationLog* log = options_.replication_log;
        if (log != nullptr) {
          if (QMATCH_FAILPOINT_FIRED("net.partition.replica") || fenced()) {
            // Partitioned or fenced: sever every subscriber instead of
            // pumping — a dead link must look dead, and a stale primary
            // must not keep feeding a standby it no longer owns.
            CloseAllReplicas();
          } else {
            // Ship anything owed first, then an empty batch carrying the
            // head: an idle standby's lag reading stays truthful and a dead
            // link surfaces as a send failure here instead of never.
            PumpAllReplicas();
            replica::RecordsMsg heartbeat;
            heartbeat.head_seq = log->head_seq();
            heartbeat.epoch = epoch();
            const std::string frame = EncodeFrame(
                MsgType::kReplicaRecords, replica::EncodeRecordsMsg(heartbeat));
            std::vector<uint64_t> ids;
            ids.reserve(connections_.size());
            for (const auto& [id, conn] : connections_) {
              if (conn->replica && !conn->closing) ids.push_back(id);
            }
            for (const uint64_t id : ids) {
              Connection* conn = FindConnection(id);
              if (conn == nullptr) continue;
              SendFrame(conn, frame);
              FlushConnection(conn);
            }
          }
        }
        ProbePeerEpoch();
        ArmReplicaHeartbeat();
      });
}

void Server::CloseAllReplicas() {
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) {
    if (conn->replica) ids.push_back(id);
  }
  for (const uint64_t id : ids) CloseConnection(id);
  if (!ids.empty()) {
    QMATCH_COUNTER_ADD("net.replica_links_severed", ids.size());
  }
}

void Server::ProbePeerEpoch() {
  // The probe is a primary-side defence: only a server that believes it
  // owns the epoch needs to discover it does not. (Standbys learn from
  // their stream instead.)
  if (role() != Role::kPrimary) return;
  std::string host;
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(peer_mutex_);
    host = peer_host_;
    port = peer_port_;
  }
  if (port == 0) return;
  // Partition injection: the peer link is down — probes vanish.
  if (QMATCH_FAILPOINT_FIRED("net.partition.peer")) {
    QMATCH_COUNTER_ADD("net.partition_drops", 1);
    return;
  }
  // One probe in flight at a time: heartbeats must not pile blocked
  // connects behind a slow peer.
  if (probe_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  workers_->Submit([this, host, port] {
    Result<Client> peer =
        Client::Connect(host, port, options_.peer_probe_timeout);
    if (peer.ok()) {
      Result<RoleResp> role_resp = peer.value().GetRole();
      if (role_resp.ok()) {
        QMATCH_COUNTER_ADD("net.peer_probes_ok", 1);
        ObserveEpoch(role_resp.value().head.epoch);
      }
    }
    probe_inflight_.store(false, std::memory_order_release);
  });
}

void Server::SendFrame(Connection* conn, std::string frame_bytes) {
  conn->out.append(frame_bytes);
}

void Server::FlushConnection(Connection* conn) {
  const uint64_t conn_id = conn->id;
  // Chaos handle: a fired net.write is a fatal socket error mid-flush.
  if (!conn->out.empty() && QMATCH_FAILPOINT_FIRED("net.write")) {
    QMATCH_COUNTER_ADD("net.write_faults", 1);
    CloseConnection(conn_id);
    return;
  }
  while (!conn->out.empty()) {
    // MSG_NOSIGNAL: flushing to a just-disconnected peer must surface as
    // EPIPE (close the connection), never as a process-killing SIGPIPE.
    const ssize_t n =
        send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn_id);
    return;
  }
  if (conn->out.empty() && conn->closing && !conn->busy) {
    CloseConnection(conn_id);
    return;
  }
  UpdateEpollMask(conn);
}

void Server::UpdateEpollMask(Connection* conn) {
  const uint32_t mask =
      EPOLLIN | (conn->out.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  loop_.Modify(conn->fd, mask);
}

void Server::CloseConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (conn->idle_timer != 0) loop_.timers().Cancel(conn->idle_timer);
  loop_.Remove(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  connections_.erase(it);
  closed_.fetch_add(1, std::memory_order_relaxed);
  QMATCH_COUNTER_ADD("net.closed", 1);
  QMATCH_GAUGE_ADD("net.connections", -1);
}

void Server::ArmIdleTimer(Connection* conn) {
  if (conn->replica) return;  // push-mode: never idle-closed
  if (options_.idle_timeout.count() <= 0) return;
  if (conn->idle_timer != 0) loop_.timers().Cancel(conn->idle_timer);
  const uint64_t conn_id = conn->id;
  conn->idle_timer = loop_.timers().ScheduleAfter(
      options_.idle_timeout, [this, conn_id] {
        QMATCH_COUNTER_ADD("net.idle_timeouts", 1);
        CloseConnection(conn_id);
      });
}

// --- worker pool -----------------------------------------------------------

void Server::CountOutcome(const Status& status) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  QMATCH_COUNTER_ADD("net.requests", 1);
  switch (status.code()) {
    case StatusCode::kOk:
      QMATCH_COUNTER_ADD("net.requests_ok", 1);
      break;
    case StatusCode::kOverloaded:
      QMATCH_COUNTER_ADD("net.requests_overloaded", 1);
      break;
    case StatusCode::kDeadlineExceeded:
      QMATCH_COUNTER_ADD("net.requests_deadline_exceeded", 1);
      break;
    case StatusCode::kResourceExhausted:
      QMATCH_COUNTER_ADD("net.requests_resource_exhausted", 1);
      break;
    case StatusCode::kCancelled:
      QMATCH_COUNTER_ADD("net.requests_cancelled", 1);
      break;
    case StatusCode::kUnavailable:
      QMATCH_COUNTER_ADD("net.requests_unavailable", 1);
      break;
    default:
      QMATCH_COUNTER_ADD("net.requests_error", 1);
      break;
  }
}

Deadline Server::RequestDeadline(uint64_t deadline_ms) const {
  milliseconds budget = deadline_ms > 0
                            ? milliseconds(static_cast<int64_t>(deadline_ms))
                            : options_.default_deadline;
  // The ceiling also binds "unbounded" asks: with a max configured, no
  // request parks on the engine forever.
  if (options_.max_deadline.count() > 0 &&
      (budget.count() <= 0 || budget > options_.max_deadline)) {
    budget = options_.max_deadline;
  }
  if (budget.count() <= 0) return Deadline::Infinite();
  return Deadline::After(budget);
}

StatsResp Server::BuildStats() const {
  StatsResp s;
  s.head.epoch = epoch();
  s.schemas = schema_count();
  const core::MatchEngineCacheStats cache = engine_->cache_stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_entries = cache.entries;
  s.admission_shed = engine_->admission().shed_total();
  s.requests_total = requests_.load(std::memory_order_relaxed);
  s.connections_active = connections_.size();
  s.pressure = engine_->Pressure();
  return s;
}

RoleResp Server::BuildRole() const {
  RoleResp resp;
  resp.head.epoch = epoch();
  const Role r = role();
  resp.role = static_cast<uint32_t>(r);
  resp.ready = Ready() ? 1 : 0;
  if (r == Role::kPrimary && options_.replication_log != nullptr) {
    // A primary is its own source of truth: applied == head by definition.
    const uint64_t head = options_.replication_log->head_seq();
    resp.applied_seq = head;
    resp.head_seq = head;
  } else {
    resp.applied_seq = replica_applied_.load(std::memory_order_relaxed);
    resp.head_seq = replica_head_.load(std::memory_order_relaxed);
  }
  resp.lag_records = resp.head_seq > resp.applied_seq
                         ? resp.head_seq - resp.applied_seq
                         : 0;
  return resp;
}

std::shared_ptr<const xsd::Schema> Server::LookupSchema(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(schemas_mutex_);
  const auto it = schemas_.find(name);
  return it == schemas_.end() ? nullptr : it->second.schema;
}

void Server::ExecuteSubmitSchema(uint64_t conn_id, SubmitSchemaReq req) {
  QMATCH_SPAN(span, "net.submit_schema");
  QMATCH_OBS_ONLY(const steady_clock::time_point start = steady_clock::now();)
  SubmitSchemaResp resp;
  xsd::ParseOptions parse = options_.parse;
  parse.schema_name = req.name;
  if (req.name.empty()) {
    resp.head = ResponseHead::FromStatus(
        Status::InvalidArgument("schema name must be non-empty"));
  } else {
    Result<xsd::Schema> schema = xsd::ParseSchema(req.xsd_text, parse);
    if (!schema.ok()) {
      resp.head = ResponseHead::FromStatus(schema.status());
    } else {
      resp.fingerprint = xsd::SchemaFingerprint(*schema);
      resp.node_count = schema->NodeCount();
      auto shared = std::make_shared<const xsd::Schema>(std::move(*schema));
      {
        std::lock_guard<std::mutex> lock(schemas_mutex_);
        schemas_[req.name] = SchemaEntry{std::move(shared), req.xsd_text};
      }
      if (options_.schema_observer) {
        options_.schema_observer(req.name, req.xsd_text);
      }
    }
  }
  QMATCH_HISTOGRAM_OBSERVE(
      "net.request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady_clock::now() - start)
          .count());
  resp.head.epoch = epoch();
  CompleteRequest(conn_id, resp.head.ToStatus(),
                  EncodeFrame(MsgType::kSubmitSchemaResp,
                              EncodeSubmitSchemaResp(resp)));
}

void Server::ExecuteMatchPair(uint64_t conn_id, MatchPairReq req) {
  QMATCH_SPAN(span, "net.match_pair");
  QMATCH_OBS_ONLY(const steady_clock::time_point start = steady_clock::now();)
  MatchPairResp resp;
  const std::shared_ptr<const xsd::Schema> source = LookupSchema(req.source);
  const std::shared_ptr<const xsd::Schema> target = LookupSchema(req.target);
  if (source == nullptr || target == nullptr) {
    resp.head = ResponseHead::FromStatus(Status::NotFound(
        "unknown schema: " + (source == nullptr ? req.source : req.target)));
  } else {
    core::EngineRequestOptions opts;
    opts.deadline = RequestDeadline(req.deadline_ms);
    const core::EngineMatchResult result =
        engine_->Match(*source, *target, opts);
    resp.head = ResponseHead::FromStatus(result.status);
    resp.algorithm = result.result.algorithm;
    resp.mode = static_cast<uint32_t>(result.result.mode);
    resp.schema_qom = result.result.schema_qom;
    resp.completed_rows = result.completed_rows;
    resp.total_rows = result.total_rows;
    resp.correspondences.reserve(result.result.correspondences.size());
    for (const Correspondence& c : result.result.correspondences) {
      resp.correspondences.push_back(
          WireCorrespondence{c.source->Path(), c.target->Path(), c.score});
    }
  }
  QMATCH_HISTOGRAM_OBSERVE(
      "net.request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady_clock::now() - start)
          .count());
  resp.head.epoch = epoch();
  CompleteRequest(
      conn_id, resp.head.ToStatus(),
      EncodeFrame(MsgType::kMatchPairResp, EncodeMatchPairResp(resp)));
}

void Server::ExecuteMatchCorpus(uint64_t conn_id, MatchCorpusReq req) {
  QMATCH_SPAN(span, "net.match_corpus");
  QMATCH_OBS_ONLY(const steady_clock::time_point start = steady_clock::now();)
  MatchCorpusResp resp;
  const std::shared_ptr<const xsd::Schema> query = LookupSchema(req.query);
  if (query == nullptr) {
    resp.head = ResponseHead::FromStatus(
        Status::NotFound("unknown schema: " + req.query));
  } else {
    // One shared deadline across every candidate, same as MatchCorpus's
    // request envelope: candidates matched after expiry degrade typed.
    core::EngineRequestOptions opts;
    opts.deadline = RequestDeadline(req.deadline_ms);
    std::vector<std::pair<std::string, std::shared_ptr<const xsd::Schema>>>
        candidates;
    {
      std::lock_guard<std::mutex> lock(schemas_mutex_);
      candidates.reserve(schemas_.size());
      for (const auto& [name, entry] : schemas_) {
        if (name != req.query) candidates.emplace_back(name, entry.schema);
      }
    }
    resp.entries.reserve(candidates.size());
    for (const auto& [name, schema] : candidates) {
      const core::EngineMatchResult result =
          engine_->Match(*query, *schema, opts);
      WireCorpusEntry entry;
      entry.name = name;
      entry.code = static_cast<uint32_t>(result.status.code());
      entry.schema_qom = result.result.schema_qom;
      entry.correspondences = result.result.correspondences.size();
      resp.entries.push_back(std::move(entry));
    }
  }
  QMATCH_HISTOGRAM_OBSERVE(
      "net.request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady_clock::now() - start)
          .count());
  resp.head.epoch = epoch();
  CompleteRequest(
      conn_id, resp.head.ToStatus(),
      EncodeFrame(MsgType::kMatchCorpusResp, EncodeMatchCorpusResp(resp)));
}

void Server::CompleteRequest(uint64_t conn_id, const Status& status,
                             std::string frame_bytes) {
  // The outcome is counted HERE, on the worker, before the connection is
  // consulted: a client that disconnected mid-request still accounts for
  // exactly one outcome (the chaos suite's exactly-once contract).
  CountOutcome(status);
  loop_.Post([this, conn_id, frame_bytes = std::move(frame_bytes)]() mutable {
    Connection* conn = FindConnection(conn_id);
    if (conn == nullptr) return;  // disconnected mid-request: response dropped
    conn->busy = false;
    SendFrame(conn, std::move(frame_bytes));
    MaybeDispatchNext(conn);
    FlushConnection(conn);
  });
}

}  // namespace qmatch::net
