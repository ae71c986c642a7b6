#include "replica/standby.h"

#include <algorithm>
#include <utility>

#include "common/backoff.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "obs/obs.h"
#include "persist/snapshot.h"

namespace qmatch::replica {

namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

/// Sleeps `pause` in small slices so a Stop() lands within ~20ms instead
/// of a full backoff period.
void InterruptibleSleep(nanoseconds pause, const std::atomic<bool>& stop) {
  const nanoseconds slice = milliseconds(20);
  while (pause.count() > 0 && !stop.load(std::memory_order_acquire)) {
    const nanoseconds chunk = std::min(pause, slice);
    std::this_thread::sleep_for(chunk);
    pause -= chunk;
  }
}

}  // namespace

Standby::Standby(core::MatchEngine* engine, net::Server* server,
                 StandbyOptions options)
    : engine_(engine), server_(server), options_(std::move(options)) {}

Standby::~Standby() { Stop(); }

Status Standby::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("standby already started");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void Standby::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  connected_.store(false, std::memory_order_release);
}

void Standby::Promote() {
  Stop();
  if (server_->role() != net::Role::kStandby) return;
  // Claim the next fencing epoch ON DISK before the role flips
  // (DESIGN.md §16): by the time this server can acknowledge a single
  // write as primary, a crash-restart of either node must already find
  // the bumped epoch. epoch_seen covers the case where this standby heard
  // of a newer epoch than it adopted — the claim is always strictly above
  // everything it has ever seen. A failed persist is counted inside
  // AdoptEpoch but does not veto the promotion: refusing to fail over
  // because the disk is full would trade availability for nothing (the
  // old primary is fenced by the wire protocol either way).
  const uint64_t next =
      std::max(server_->epoch(), server_->epoch_seen()) + 1;
  server_->AdoptEpoch(next);
  QMATCH_COUNTER_ADD("replica.promotions", 1);
  server_->SetRole(net::Role::kPrimary);
}

StandbyStats Standby::stats() const {
  StandbyStats s;
  s.applied_seq = applied_.load(std::memory_order_relaxed);
  s.head_seq = head_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.snapshots = snapshots_.load(std::memory_order_relaxed);
  s.records_applied = records_applied_.load(std::memory_order_relaxed);
  s.connected = connected_.load(std::memory_order_relaxed);
  return s;
}

void Standby::Run() {
  uint64_t failures = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool progressed = StreamOnce();
    connected_.store(false, std::memory_order_release);
    server_->SetReplicaStatus(applied_.load(), head_.load(), false);
    if (stop_.load(std::memory_order_acquire)) break;
    failures = progressed ? 0 : failures + 1;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("replica.reconnects", 1);
    InterruptibleSleep(
        RetryBackoff(options_.backoff_base, options_.backoff_cap, failures,
                     options_.backoff_seed),
        stop_);
  }
}

bool Standby::StreamOnce() {
  Result<net::Client> client = net::Client::Connect(
      options_.primary_host, options_.primary_port, options_.read_timeout);
  if (!client.ok()) return false;
  SubscribeReq req;
  req.from_seq = applied_.load(std::memory_order_relaxed) + 1;
  req.epoch = server_->epoch();
  if (!client
           ->SendBytes(net::EncodeFrame(net::MsgType::kReplicaSubscribe,
                                        EncodeSubscribeReq(req)))
           .ok()) {
    return false;
  }
  bool progressed = false;
  // Epoch gate on every stream message: a mismatched sender is a dead
  // link. A HIGHER epoch is adopted first (with positions reset — the new
  // epoch's sequence space is a different history, so the resubscribe
  // re-anchors from a snapshot); a LOWER epoch is a stale primary whose
  // frames must never be applied.
  const auto epoch_ok = [this](uint64_t msg_epoch) {
    const uint64_t own = server_->epoch();
    if (msg_epoch == 0 || msg_epoch == own) return true;
    QMATCH_COUNTER_ADD("replica.stale_epoch_msgs", 1);
    if (msg_epoch > own) {
      applied_.store(0, std::memory_order_relaxed);
      head_.store(0, std::memory_order_relaxed);
      server_->AdoptEpoch(msg_epoch);
    }
    return false;
  };
  while (!stop_.load(std::memory_order_acquire)) {
    // Chaos handle: a fired replica.stream is a dead link at a seeded
    // point — the reconnect/resume path must make it invisible.
    if (QMATCH_FAILPOINT_FIRED("replica.stream")) {
      QMATCH_COUNTER_ADD("replica.stream_faults", 1);
      break;
    }
    Result<net::Frame> frame = client->ReadFrame();
    if (!frame.ok()) break;  // timeout past heartbeat cadence = dead link
    if (frame->type == static_cast<uint32_t>(net::MsgType::kReplicaRecords)) {
      RecordsMsg msg;
      if (!DecodeRecordsMsg(frame->payload, &msg)) {
        QMATCH_COUNTER_ADD("replica.undecodable_msgs", 1);
        break;
      }
      if (!epoch_ok(msg.epoch)) break;
      if (!ApplyRecords(msg)) break;
    } else if (frame->type ==
               static_cast<uint32_t>(net::MsgType::kReplicaSnapshot)) {
      SnapshotMsg msg;
      if (!DecodeSnapshotMsg(frame->payload, &msg)) {
        QMATCH_COUNTER_ADD("replica.undecodable_msgs", 1);
        break;
      }
      if (!epoch_ok(msg.epoch)) break;
      if (!ApplySnapshot(msg)) break;
    } else if (frame->type ==
               static_cast<uint32_t>(net::MsgType::kErrorResp)) {
      // Subscribe rejected. A head carrying a higher epoch is the
      // rejected-stream demotion trigger: a promoted primary turned us
      // away — adopt its epoch (lifting any fence on our server) and let
      // the resubscribe re-anchor in the new epoch's sequence space.
      net::ResponseHead head;
      if (net::DecodeResponseHead(frame->payload, &head) &&
          head.epoch > server_->epoch()) {
        QMATCH_COUNTER_ADD("replica.stream_epoch_adoptions", 1);
        applied_.store(0, std::memory_order_relaxed);
        head_.store(0, std::memory_order_relaxed);
        server_->AdoptEpoch(head.epoch);
      }
      break;
    } else {
      // An unexpected frame: treat as a dead link and let the backoff
      // loop decide how soon to try again.
      break;
    }
    progressed = true;
    // Connected is reported only after a message applied: before that the
    // standby cannot know its lag, so /readyz must not say ready.
    connected_.store(true, std::memory_order_release);
    server_->SetReplicaStatus(applied_.load(), head_.load(), true);
  }
  return progressed;
}

bool Standby::ApplyRecords(const RecordsMsg& msg) {
  const uint64_t applied_before = applied_.load(std::memory_order_relaxed);
  if (msg.head_seq < applied_before) {
    // Epoch change: the primary's sequence space is YOUNGER than what this
    // standby already applied — it restarted (or we failed back to a
    // different node). Reset and re-anchor from a snapshot rather than
    // serve a divergent history.
    QMATCH_COUNTER_ADD("replica.epoch_resets", 1);
    applied_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    return false;
  }
  uint64_t applied = applied_before;
  for (const LogRecord& rec : msg.records) {
    if (rec.seq <= applied) continue;  // overlap with a snapshot: idempotent
    if (rec.seq != applied + 1) {
      // A hole in the stream (missed wakeup, primary-side eviction race):
      // never apply out of order — resubscribe from applied + 1 instead.
      QMATCH_COUNTER_ADD("replica.gaps", 1);
      applied_.store(applied, std::memory_order_relaxed);
      return false;
    }
    if (!ApplyOne(rec.type, rec.payload)) {
      QMATCH_COUNTER_ADD("replica.undecodable_records", 1);
      applied_.store(applied, std::memory_order_relaxed);
      return false;
    }
    applied = rec.seq;
    records_applied_.fetch_add(1, std::memory_order_relaxed);
    QMATCH_COUNTER_ADD("replica.records_applied", 1);
  }
  applied_.store(applied, std::memory_order_relaxed);
  head_.store(std::max(msg.head_seq, applied), std::memory_order_relaxed);
  return true;
}

bool Standby::ApplySnapshot(const SnapshotMsg& msg) {
  // Wholesale last-wins apply: the anchor is the primary's full state at
  // next_seq - 1, so the position is taken from the message even when it
  // moves backwards (epoch change after a primary restart).
  for (const SchemaRec& rec : msg.schemas) {
    const Status registered =
        server_->RegisterSchema(rec.name, rec.xsd_text, /*replicated=*/true);
    if (!registered.ok()) {
      // The primary parsed this text; a standby that cannot is running a
      // divergent build. Count loudly and keep the stream alive.
      QMATCH_COUNTER_ADD("replica.schema_apply_errors", 1);
    }
  }
  for (const std::string& payload : msg.cache_payloads) {
    persist::CacheEntryRec rec;
    if (!persist::DecodeCacheRecordPayload(payload, &rec)) {
      QMATCH_COUNTER_ADD("replica.undecodable_records", 1);
      return false;
    }
    engine_->ApplyReplicatedCacheEntry(rec);
  }
  for (const std::string& payload : msg.corpus_payloads) {
    persist::CorpusEntryRec rec;
    if (!persist::DecodeCorpusRecordPayload(payload, &rec)) {
      QMATCH_COUNTER_ADD("replica.undecodable_records", 1);
      return false;
    }
    engine_->ApplyReplicatedCorpusEntry(rec);
  }
  applied_.store(msg.next_seq > 0 ? msg.next_seq - 1 : 0,
                 std::memory_order_relaxed);
  head_.store(std::max(head_.load(std::memory_order_relaxed),
                       applied_.load(std::memory_order_relaxed)),
              std::memory_order_relaxed);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  QMATCH_COUNTER_ADD("replica.snapshots", 1);
  return true;
}

bool Standby::ApplyOne(uint32_t type, const std::string& payload) {
  switch (static_cast<RecordType>(type)) {
    case RecordType::kCacheEntry: {
      persist::CacheEntryRec rec;
      if (!persist::DecodeCacheRecordPayload(payload, &rec)) return false;
      engine_->ApplyReplicatedCacheEntry(rec);
      return true;
    }
    case RecordType::kCorpusEntry: {
      persist::CorpusEntryRec rec;
      if (!persist::DecodeCorpusRecordPayload(payload, &rec)) return false;
      engine_->ApplyReplicatedCorpusEntry(rec);
      return true;
    }
    case RecordType::kSchema: {
      SchemaRec rec;
      if (!DecodeSchemaRecPayload(payload, &rec)) return false;
      const Status registered =
          server_->RegisterSchema(rec.name, rec.xsd_text, /*replicated=*/true);
      if (!registered.ok()) {
        QMATCH_COUNTER_ADD("replica.schema_apply_errors", 1);
      }
      return true;  // a bad schema is counted, not fatal to the stream
    }
  }
  // Unknown record types are skipped, not fatal: a newer primary may ship
  // types this build does not know, and last-wins replay tolerates holes
  // in UNDERSTANDING as long as sequence order is kept.
  QMATCH_COUNTER_ADD("replica.unknown_record_types", 1);
  return true;
}

}  // namespace qmatch::replica
