// Wire-format conformance for the qmatchd frame protocol (DESIGN.md §14):
//
//  * frames and every request/response payload round-trip byte-exactly,
//    with doubles travelling as IEEE-754 bit patterns (NaN payloads, -0.0
//    and denormals survive);
//  * hostile lengths — the frame length field and every in-payload vector
//    count — are rejected *before* any allocation sized from them;
//  * a CRC mismatch yields a typed error frame and a clean close, never a
//    silent drop;
//  * loopback conformance: a real server on an ephemeral port answers
//    every request with a typed frame, responses arrive in request order,
//    and a MatchPair response is bit-identical to the same match run
//    in-process.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "datagen/generator.h"
#include "fault/failpoint.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "test_util.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qmatch::net {
namespace {

// Doubles whose bit patterns a value-preserving codec could mangle: a
// quiet NaN with payload bits, signalling-NaN pattern, -0.0, a denormal,
// and infinities.
const uint64_t kHostileDoubleBits[] = {
    0x7FF8DEADBEEF0123ull, 0x7FF0000000000001ull, 0x8000000000000000ull,
    0x0000000000000001ull, 0x7FF0000000000000ull, 0xFFF0000000000000ull,
};

std::string CorpusXsd(size_t index) {
  const auto& entries = datagen::Corpus();
  return xsd::ToXsd(entries[index % entries.size()].make());
}

std::string CorpusName(size_t index) {
  const auto& entries = datagen::Corpus();
  return entries[index % entries.size()].name;
}

TEST(FrameTest, RoundTripsTypeAndPayload) {
  const std::string bytes = EncodeFrame(MsgType::kMatchPair, "hello frame");
  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.type, static_cast<uint32_t>(MsgType::kMatchPair));
  EXPECT_EQ(frame.payload, "hello frame");
  EXPECT_EQ(consumed, bytes.size());
}

TEST(FrameTest, EveryPrefixNeedsMoreBytes) {
  const std::string bytes = EncodeFrame(MsgType::kGetStats, "payload");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, cut), &frame,
                          &consumed),
              FrameDecodeResult::kNeedMore)
        << "prefix length " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameTest, DecodeLeavesFollowingFrameUntouched) {
  std::string stream = EncodeFrame(MsgType::kGetStats, "first");
  const size_t first_size = stream.size();
  stream += EncodeFrame(MsgType::kGetMetrics, "second");
  Frame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(stream, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.payload, "first");
  EXPECT_EQ(consumed, first_size);
  stream.erase(0, consumed);
  ASSERT_EQ(DecodeFrame(stream, &frame, &consumed), FrameDecodeResult::kFrame);
  EXPECT_EQ(frame.payload, "second");
}

TEST(FrameTest, HostileLengthRejectedFromHeaderAlone) {
  // Eight bytes of header claiming a 4 GiB payload: the decoder must reject
  // from the header alone — before any buffer could be grown to hold it.
  std::string header;
  const uint32_t type = 2;
  const uint32_t length = 0xFFFFFFFFu;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((type >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(header, &frame, &consumed),
            FrameDecodeResult::kBadLength);
}

TEST(FrameTest, LengthJustOverCapRejected) {
  std::string header;
  const uint32_t length = kMaxFramePayload + 1;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((1u >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(header, &frame, &consumed),
            FrameDecodeResult::kBadLength);
}

TEST(FrameTest, CorruptionAnywhereIsCaught) {
  const std::string clean = EncodeFrame(MsgType::kMatchPair, "payload bytes");
  // Flip one bit at every byte position; the type, length, payload and CRC
  // fields must all be covered by the checksum (a corrupted length may also
  // legitimately surface as kBadLength or an incomplete frame).
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string bent = clean;
    bent[i] = static_cast<char>(bent[i] ^ 0x20);
    Frame frame;
    size_t consumed = 0;
    const FrameDecodeResult result = DecodeFrame(bent, &frame, &consumed);
    EXPECT_NE(result, FrameDecodeResult::kFrame) << "byte " << i;
  }
}

TEST(PayloadTest, RequestsRoundTrip) {
  SubmitSchemaReq submit{"po1", "<xsd..>"};
  SubmitSchemaReq submit2;
  ASSERT_TRUE(DecodeSubmitSchemaReq(EncodeSubmitSchemaReq(submit), &submit2));
  EXPECT_EQ(submit2.name, "po1");
  EXPECT_EQ(submit2.xsd_text, "<xsd..>");

  MatchPairReq pair{"a", "b", 1500};
  MatchPairReq pair2;
  ASSERT_TRUE(DecodeMatchPairReq(EncodeMatchPairReq(pair), &pair2));
  EXPECT_EQ(pair2.source, "a");
  EXPECT_EQ(pair2.target, "b");
  EXPECT_EQ(pair2.deadline_ms, 1500u);

  MatchCorpusReq corpus{"query", 250};
  MatchCorpusReq corpus2;
  ASSERT_TRUE(DecodeMatchCorpusReq(EncodeMatchCorpusReq(corpus), &corpus2));
  EXPECT_EQ(corpus2.query, "query");
  EXPECT_EQ(corpus2.deadline_ms, 250u);
}

TEST(PayloadTest, RequestDecodersRejectTrailingBytes) {
  std::string bytes = EncodeMatchPairReq(MatchPairReq{"a", "b", 0});
  bytes.push_back('\0');
  MatchPairReq out;
  EXPECT_FALSE(DecodeMatchPairReq(bytes, &out));
}

TEST(PayloadTest, MatchPairRespPreservesDoubleBitPatterns) {
  MatchPairResp resp;
  resp.head = ResponseHead{0, ""};
  resp.algorithm = "qmatch-hybrid";
  resp.mode = 2;
  resp.completed_rows = 7;
  resp.total_rows = 9;
  for (const uint64_t bits : kHostileDoubleBits) {
    resp.correspondences.push_back(WireCorrespondence{
        "/a/b", "/c/d", std::bit_cast<double>(bits)});
  }
  resp.schema_qom = std::bit_cast<double>(kHostileDoubleBits[0]);

  MatchPairResp decoded;
  ASSERT_TRUE(DecodeMatchPairResp(EncodeMatchPairResp(resp), &decoded));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded.schema_qom),
            kHostileDoubleBits[0]);
  ASSERT_EQ(decoded.correspondences.size(), std::size(kHostileDoubleBits));
  for (size_t i = 0; i < std::size(kHostileDoubleBits); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.correspondences[i].score),
              kHostileDoubleBits[i])
        << "double " << i;
    EXPECT_EQ(decoded.correspondences[i].source_path, "/a/b");
    EXPECT_EQ(decoded.correspondences[i].target_path, "/c/d");
  }
  EXPECT_EQ(decoded.mode, 2u);
  EXPECT_EQ(decoded.completed_rows, 7u);
  EXPECT_EQ(decoded.total_rows, 9u);
}

TEST(PayloadTest, HostileCorrespondenceCountRejectedBeforeReserve) {
  // A valid head + fields, then a count field claiming ~16M entries with
  // almost no bytes behind it: the decoder must refuse before reserving.
  MatchPairResp resp;
  resp.head = ResponseHead{0, ""};
  std::string bytes = EncodeMatchPairResp(resp);
  // Rewrite the trailing u32 count (last 4 bytes of an empty-vector
  // payload) to a hostile value.
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = static_cast<char>(0xFF);
  bytes[bytes.size() - 3] = static_cast<char>(0xFF);
  bytes[bytes.size() - 2] = static_cast<char>(0xFF);
  bytes[bytes.size() - 1] = static_cast<char>(0x00);
  MatchPairResp out;
  EXPECT_FALSE(DecodeMatchPairResp(bytes, &out));
}

TEST(PayloadTest, HostileCorpusEntryCountRejectedBeforeReserve) {
  MatchCorpusResp resp;
  resp.head = ResponseHead{0, ""};
  std::string bytes = EncodeMatchCorpusResp(resp);
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = static_cast<char>(0xFF);
  bytes[bytes.size() - 3] = static_cast<char>(0xFF);
  bytes[bytes.size() - 2] = static_cast<char>(0xFF);
  bytes[bytes.size() - 1] = static_cast<char>(0x00);
  MatchCorpusResp out;
  EXPECT_FALSE(DecodeMatchCorpusResp(bytes, &out));
}

TEST(PayloadTest, ErrorHeadRoundTripsThroughEveryResponseDecoder) {
  const ResponseHead head = ResponseHead::FromStatus(
      Status::Overloaded("engine shed this request"));
  const std::string bytes = EncodeErrorResp(head);
  ResponseHead decoded;
  ASSERT_TRUE(DecodeResponseHead(bytes, &decoded));
  EXPECT_EQ(decoded.status_code(), StatusCode::kOverloaded);
  EXPECT_EQ(decoded.message, "engine shed this request");
  EXPECT_EQ(decoded.ToStatus().code(), StatusCode::kOverloaded);

  // SubmitSchemaResp's body is conditional on an OK head, so an error head
  // alone is a complete, decodable payload for it too.
  SubmitSchemaResp submit;
  ASSERT_TRUE(DecodeSubmitSchemaResp(
      EncodeSubmitSchemaResp(SubmitSchemaResp{head, 0, 0}), &submit));
  EXPECT_EQ(submit.head.status_code(), StatusCode::kOverloaded);
}

TEST(PayloadTest, StatsAndMetricsRoundTrip) {
  StatsResp stats;
  stats.schemas = 12;
  stats.cache_hits = 34;
  stats.cache_misses = 56;
  stats.cache_entries = 7;
  stats.admission_shed = 8;
  stats.requests_total = 90;
  stats.connections_active = 3;
  stats.pressure = 0.625;
  StatsResp stats2;
  ASSERT_TRUE(DecodeStatsResp(EncodeStatsResp(stats), &stats2));
  EXPECT_EQ(stats2.schemas, 12u);
  EXPECT_EQ(stats2.cache_hits, 34u);
  EXPECT_EQ(stats2.cache_misses, 56u);
  EXPECT_EQ(stats2.cache_entries, 7u);
  EXPECT_EQ(stats2.admission_shed, 8u);
  EXPECT_EQ(stats2.requests_total, 90u);
  EXPECT_EQ(stats2.connections_active, 3u);
  EXPECT_DOUBLE_EQ(stats2.pressure, 0.625);

  MetricsResp metrics;
  metrics.prometheus_text = "# TYPE x counter\nx 1\n";
  MetricsResp metrics2;
  ASSERT_TRUE(DecodeMetricsResp(EncodeMetricsResp(metrics), &metrics2));
  EXPECT_EQ(metrics2.prometheus_text, metrics.prometheus_text);
}

// --- loopback conformance --------------------------------------------------

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<core::MatchEngine>(core::MatchEngineOptions{});
    server_ = std::make_unique<Server>(engine_.get(), ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override { server_->Stop(); }

  Client Connect() {
    Result<Client> client = Client::Connect(
        "127.0.0.1", server_->port(), test::Scaled(std::chrono::seconds(5)));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : Client();
  }

  std::unique_ptr<core::MatchEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(LoopbackTest, SubmitMatchStatsMetricsConformance) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());

  const std::string name_a = CorpusName(0);
  const std::string name_b = CorpusName(1);
  Result<SubmitSchemaResp> submit_a = client.SubmitSchema(name_a, CorpusXsd(0));
  ASSERT_TRUE(submit_a.ok()) << submit_a.status().ToString();
  ASSERT_TRUE(submit_a->head.ok()) << submit_a->head.message;
  EXPECT_GT(submit_a->node_count, 0u);
  EXPECT_NE(submit_a->fingerprint, 0u);

  Result<SubmitSchemaResp> submit_b = client.SubmitSchema(name_b, CorpusXsd(1));
  ASSERT_TRUE(submit_b.ok());
  ASSERT_TRUE(submit_b->head.ok());

  Result<MatchPairResp> match = client.MatchPair(name_a, name_b);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  ASSERT_EQ(match->head.status_code(), StatusCode::kOk)
      << match->head.message;
  EXPECT_FALSE(match->correspondences.empty());

  // The acceptance criterion: the wire response is bit-identical to the
  // same match executed in-process (fresh engine, same parse options).
  xsd::ParseOptions parse_a;
  parse_a.schema_name = name_a;
  xsd::ParseOptions parse_b;
  parse_b.schema_name = name_b;
  Result<xsd::Schema> ref_a = xsd::ParseSchema(CorpusXsd(0), parse_a);
  Result<xsd::Schema> ref_b = xsd::ParseSchema(CorpusXsd(1), parse_b);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());
  core::MatchEngine reference(core::MatchEngineOptions{});
  const core::EngineMatchResult expected =
      reference.Match(*ref_a, *ref_b, core::EngineRequestOptions{});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(match->schema_qom),
            std::bit_cast<uint64_t>(expected.result.schema_qom));
  ASSERT_EQ(match->correspondences.size(),
            expected.result.correspondences.size());
  for (size_t i = 0; i < match->correspondences.size(); ++i) {
    const WireCorrespondence& got = match->correspondences[i];
    const Correspondence& want = expected.result.correspondences[i];
    EXPECT_EQ(got.source_path, want.source->Path());
    EXPECT_EQ(got.target_path, want.target->Path());
    EXPECT_EQ(std::bit_cast<uint64_t>(got.score),
              std::bit_cast<uint64_t>(want.score))
        << "correspondence " << i;
  }

  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->head.ok());
  EXPECT_EQ(stats->schemas, 2u);
  EXPECT_EQ(stats->connections_active, 1u);
  EXPECT_GE(stats->requests_total, 3u);

  Result<MetricsResp> metrics = client.GetMetrics();
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics->head.ok());
  EXPECT_NE(metrics->prometheus_text.find("net_requests"), std::string::npos);
}

TEST_F(LoopbackTest, MatchCorpusRanksEverySubmittedCandidate) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  for (size_t i = 0; i < 4; ++i) {
    Result<SubmitSchemaResp> submitted =
        client.SubmitSchema(CorpusName(i), CorpusXsd(i));
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->head.ok()) << submitted->head.message;
  }
  Result<MatchCorpusResp> corpus = client.MatchCorpus(CorpusName(0));
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_TRUE(corpus->head.ok()) << corpus->head.message;
  ASSERT_EQ(corpus->entries.size(), 3u);  // everything but the query
  for (const WireCorpusEntry& entry : corpus->entries) {
    EXPECT_EQ(static_cast<StatusCode>(entry.code), StatusCode::kOk)
        << entry.name;
    EXPECT_NE(entry.name, CorpusName(0));
  }
}

TEST_F(LoopbackTest, MatchCorpusAnswersWithinItsDeadline) {
  // Candidates large enough that matching all of them takes far longer
  // than the deadline: the one deadline shared by the corpus loop must cut
  // it short, with a typed code per entry.
  datagen::GeneratorOptions gen;
  gen.element_count = 1000;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    gen.seed = seed;
    gen.name = "Big" + std::to_string(seed);
    ASSERT_TRUE(server_
                    ->RegisterSchema(gen.name,
                                     xsd::ToXsd(datagen::GenerateSchema(gen)))
                    .ok());
  }
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  const std::chrono::milliseconds deadline(20);
  const auto start = std::chrono::steady_clock::now();
  Result<MatchCorpusResp> corpus =
      client.MatchCorpus("Big1", static_cast<uint64_t>(deadline.count()));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_LE(elapsed, deadline + test::kDeadlineSlack);
  ASSERT_EQ(corpus->entries.size(), 5u);
  size_t exceeded = 0;
  for (const WireCorpusEntry& entry : corpus->entries) {
    const StatusCode code = static_cast<StatusCode>(entry.code);
    EXPECT_TRUE(code == StatusCode::kOk ||
                code == StatusCode::kDeadlineExceeded)
        << entry.name << ": " << StatusCodeToString(code);
    if (code == StatusCode::kDeadlineExceeded) ++exceeded;
  }
  EXPECT_GE(exceeded, 1u) << "the corpus finished inside its deadline";
}

TEST_F(LoopbackTest, UnknownSchemaAnswersTypedNotFound) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  Result<MatchPairResp> match = client.MatchPair("nope", "also-nope");
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->head.status_code(), StatusCode::kNotFound);
}

TEST_F(LoopbackTest, UnparseableSchemaAnswersTypedError) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  Result<SubmitSchemaResp> submit =
      client.SubmitSchema("broken", "this is not an xsd <<<");
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  EXPECT_FALSE(submit->head.ok());
  // The connection survives a rejected request.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());
}

TEST_F(LoopbackTest, UnknownRequestTypeAnswersTypedAndKeepsConnection) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendBytes(EncodeFrame(0x42u, "mystery")).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(DecodeResponseHead(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kInvalidArgument);
  // Still a working connection afterwards.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());
}

TEST_F(LoopbackTest, CrcMismatchAnswersTypedErrorFrameThenCloses) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  std::string bent = EncodeFrame(MsgType::kGetStats, "payload");
  bent[9] ^= 0x01;  // flip a payload bit; CRC no longer matches
  ASSERT_TRUE(client.SendBytes(bent).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(DecodeResponseHead(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kDataLoss);
  // The stream is desynced: the server closes after the typed answer.
  Result<Frame> after = client.ReadFrame();
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(server_->stats().bad_frames, 1u);
}

TEST_F(LoopbackTest, OversizedLengthAnswersTypedErrorBeforeAllocation) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  // Hand-build a header claiming a 4 GiB payload; send only the header.
  std::string header;
  const uint32_t type = static_cast<uint32_t>(MsgType::kMatchPair);
  const uint32_t length = 0xFFFFFFF0u;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((type >> shift) & 0xFF));
  }
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  ASSERT_TRUE(client.SendBytes(header).ok());
  Result<Frame> reply = client.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, static_cast<uint32_t>(MsgType::kErrorResp));
  ResponseHead head;
  ASSERT_TRUE(DecodeResponseHead(reply->payload, &head));
  EXPECT_EQ(head.status_code(), StatusCode::kInvalidArgument);
  Result<Frame> after = client.ReadFrame();
  EXPECT_FALSE(after.ok());
}

TEST_F(LoopbackTest, PipelinedRequestsAnswerInRequestOrder) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(0), CorpusXsd(0))->head.ok());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(1), CorpusXsd(1))->head.ok());

  // Two matches and a stats call written back-to-back, answered strictly
  // in order: pair resp, pair resp, stats resp.
  MatchPairReq pair{CorpusName(0), CorpusName(1), 0};
  std::string burst = EncodeFrame(MsgType::kMatchPair, EncodeMatchPairReq(pair));
  burst += EncodeFrame(MsgType::kMatchPair, EncodeMatchPairReq(pair));
  burst += EncodeFrame(MsgType::kGetStats, "");
  ASSERT_TRUE(client.SendBytes(burst).ok());

  const uint32_t expected_types[] = {
      static_cast<uint32_t>(MsgType::kMatchPairResp),
      static_cast<uint32_t>(MsgType::kMatchPairResp),
      static_cast<uint32_t>(MsgType::kGetStatsResp),
  };
  for (const uint32_t expected : expected_types) {
    Result<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, expected);
  }
}

#if QMATCH_FAULT_ENABLED
TEST_F(LoopbackTest, PipelineOverflowIsAnsweredInRequestOrder) {
  // A MatchPair slowed by a treematch.pair delay keeps the connection busy
  // while far more than the server's pipeline depth (256 queued frames)
  // arrives behind it. Every answer must pair with its own request: the
  // match first, then each queued request's own response type, and the
  // typed overflow refusals exactly in the places of the requests that
  // overflowed — never ahead of the earlier requests still pending.
  constexpr size_t kPipelineDepth = 256;
  constexpr size_t kBehind = 400;
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(0), CorpusXsd(0))->head.ok());
  ASSERT_TRUE(client.SubmitSchema(CorpusName(1), CorpusXsd(1))->head.ok());

  fault::FaultSpec slow;
  slow.action = fault::FaultAction::kDelay;
  slow.delay = test::Scaled(std::chrono::milliseconds(300));
  slow.fire_on_nth_hit = 1;
  fault::ScopedFailpoint armed("treematch.pair", slow);

  // The match goes first, alone; the burst follows once it is executing
  // (its first pair hit the failpoint), so all of it queues behind it.
  const MatchPairReq pair{CorpusName(0), CorpusName(1), 0};
  ASSERT_TRUE(client
                  .SendBytes(EncodeFrame(MsgType::kMatchPair,
                                         EncodeMatchPairReq(pair)))
                  .ok());
  for (int i = 0; i < 1000 && armed.stats().hits == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(armed.stats().hits, 1u);
  std::string burst;
  std::vector<MsgType> answers = {MsgType::kMatchPairResp};
  for (size_t k = 0; k < kBehind; ++k) {
    // Alternate two inline request types so a shifted answer shows.
    const bool health = k % 2 == 0;
    burst += EncodeFrame(health ? MsgType::kHealth : MsgType::kRole, "");
    answers.push_back(health ? MsgType::kHealthResp : MsgType::kRoleResp);
  }
  ASSERT_TRUE(client.SendBytes(burst).ok());

  size_t refused = 0;
  for (size_t k = 0; k < answers.size(); ++k) {
    Result<Frame> frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << "answer " << k << ": "
                            << frame.status().ToString();
    if (k > kPipelineDepth) {
      // Beyond the depth: the request's place gets the typed refusal.
      ASSERT_EQ(frame->type, static_cast<uint32_t>(MsgType::kErrorResp))
          << "answer " << k;
      ResponseHead head;
      ASSERT_TRUE(DecodeResponseHead(frame->payload, &head));
      EXPECT_EQ(head.status_code(), StatusCode::kResourceExhausted);
      ++refused;
      continue;
    }
    ASSERT_EQ(frame->type, static_cast<uint32_t>(answers[k]))
        << "answer " << k << " does not belong to request " << k;
  }
  EXPECT_EQ(refused, kBehind - kPipelineDepth);
  EXPECT_EQ(armed.stats().fires, 1u);
  // The connection still works after the overflow drained.
  Result<StatsResp> stats = client.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->head.ok());
}
#endif  // QMATCH_FAULT_ENABLED

TEST_F(LoopbackTest, HttpGetServesOneShotPrometheusScrape) {
  Client client = Connect();
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendBytes("GET /metrics HTTP/1.0\r\n\r\n").ok());
  // Not a framed response: ReadFrame refuses the bytes as unframeable,
  // which is exactly right — scrape clients speak HTTP, not frames.
  Result<Frame> frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());
  EXPECT_GE(server_->stats().http_metrics, 1u);
}

TEST_F(LoopbackTest, ServerStatsAccountConnectionsAndRequests) {
  {
    Client client = Connect();
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.GetStats().ok());
  }  // destructor closes the socket
  // Poll until the loop notices the close (it is asynchronous).
  for (int i = 0; i < 200 && server_->stats().closed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(SchemaObserverTest, RevisionsOfOneNameAreObservedInStoreOrder) {
  // The observer (the replication-log append on a primary) holds its first
  // call open until a second revision of the same name arrives on another
  // connection. The second revision must not be stored until the first is
  // observed: otherwise the log reads v2, v1 while the server serves v2,
  // and a last-wins standby converges on v1.
  std::mutex mu;
  std::condition_variable cv;
  size_t calls = 0;
  std::vector<std::string> observed;
  ServerOptions options;
  options.request_threads = 2;
  options.schema_observer = [&](const std::string&, const std::string& text) {
    std::unique_lock<std::mutex> lock(mu);
    const size_t call = ++calls;
    cv.notify_all();
    if (call == 1) {
      cv.wait_for(lock, std::chrono::milliseconds(200),
                  [&] { return calls >= 2; });
    }
    observed.push_back(text);
  };
  core::MatchEngine engine(core::MatchEngineOptions{});
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  const auto connect = [&] {
    Result<Client> client = Client::Connect(
        "127.0.0.1", server.port(), test::Scaled(std::chrono::seconds(5)));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : Client();
  };
  Client first = connect();
  Client second = connect();
  ASSERT_TRUE(first.connected() && second.connected());

  const std::string v1 = CorpusXsd(0);
  const std::string v2 = CorpusXsd(1);
  std::thread writer([&] {
    Result<SubmitSchemaResp> resp = first.SubmitSchema("doc", v1);
    EXPECT_TRUE(resp.ok() && resp->head.ok());
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, test::Scaled(std::chrono::seconds(5)),
                            [&] { return calls >= 1; }));
  }
  Result<SubmitSchemaResp> resp = second.SubmitSchema("doc", v2);
  writer.join();
  ASSERT_TRUE(resp.ok() && resp->head.ok());

  std::string served;
  for (const auto& [name, text] : server.ExportSchemas()) {
    if (name == "doc") served = text;
  }
  EXPECT_EQ(served, v2);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_TRUE(observed.back() == served)
      << "the observer saw the revisions in another order than they were "
         "stored";
  server.Stop();
}

}  // namespace
}  // namespace qmatch::net
