// Unit tests for src/common: Status, Result, string utilities, Random,
// RetryBackoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/backoff.h"
#include "common/file_util.h"
#include "fault/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"

namespace qmatch {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("boom").message(), "boom");
  EXPECT_FALSE(Status::ParseError("boom").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_EQ(s.ToString(), "parse error: bad token");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::ParseError("bad token").WithContext("line 3");
  EXPECT_EQ(s.message(), "line 3: bad token");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(Status::OK().WithContext("ignored"), Status::OK());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = [](bool fail) {
    return fail ? Status::Internal("inner") : Status::OK();
  };
  auto outer = [&](bool fail) -> Status {
    QMATCH_RETURN_IF_ERROR(inner(fail));
    return Status::InvalidArgument("after");
  };
  EXPECT_EQ(outer(true).code(), StatusCode::kInternal);
  EXPECT_EQ(outer(false).code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kParseError), "parse error");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "deadline exceeded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "cancelled");
}

TEST(StatusTest, RobustnessFactoriesSetCodeAndMessage) {
  // The typed-request outcomes of the fault-injection layer: requests that
  // ran out of budget or were cancelled are statuses, not exceptions.
  const Status deadline = Status::DeadlineExceeded("match timed out");
  EXPECT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "deadline exceeded: match timed out");
  const Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "cancelled: caller gave up");
  // WithContext (how corpus entries attach their path) preserves the code.
  EXPECT_EQ(deadline.WithContext("PO1.xsd").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.WithContext("PO1.xsd").message(),
            "PO1.xsd: match timed out");
}

TEST(ResultTest, PropagatesRobustnessStatuses) {
  // Result<T> carries the new codes like any other error — nothing in the
  // propagation path special-cases them.
  Result<int> degraded = Status::DeadlineExceeded("slow");
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(degraded.value_or(-1), -1);
  auto f = [&]() -> Result<int> {
    QMATCH_ASSIGN_OR_RETURN(int v, Result<int>(Status::Cancelled("stop")));
    return v;
  };
  EXPECT_EQ(f().status().code(), StatusCode::kCancelled);
}

// --- Result ----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto maybe = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("no");
    return 7;
  };
  auto f = [&](bool fail) -> Result<int> {
    QMATCH_ASSIGN_OR_RETURN(int v, maybe(fail));
    return v + 1;
  };
  EXPECT_EQ(*f(false), 8);
  EXPECT_EQ(f(true).status().code(), StatusCode::kOutOfRange);
}

// --- string_util -----------------------------------------------------------

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
  EXPECT_EQ(ToUpper("AbC-12"), "ABC-12");
  EXPECT_TRUE(EqualsIgnoreCase("Hello", "hELLO"));
  EXPECT_FALSE(EqualsIgnoreCase("Hello", "Hell"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilTest, SplitPreservesEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitSkipEmptyTrims) {
  EXPECT_EQ(SplitSkipEmpty(" a , ,b ", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitSkipEmpty("  ", ',').empty());
}

TEST(StringUtilTest, JoinRoundtripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("hello", "l", ""), "heo");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");  // empty needle: unchanged
  EXPECT_EQ(ReplaceAll("abab", "ab", "ba"), "baba");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// --- Random ------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInBound) {
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random rng(6);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RandomTest, ShufflePermutes) {
  Random rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(RandomTest, PickReturnsElement) {
  Random rng(9);
  std::vector<int> v = {10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int p = rng.Pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

// --- file_util -----------------------------------------------------------

TEST(FileUtilTest, WriteReadRoundtrip) {
  const std::string path = ::testing::TempDir() + "/qmatch_file_util_test.txt";
  const std::string payload = "line one\nline two\0with nul";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

TEST(FileUtilTest, OverwriteReplacesContents) {
  const std::string path = ::testing::TempDir() + "/qmatch_overwrite_test.txt";
  ASSERT_TRUE(WriteFile(path, "first, longer contents").ok());
  ASSERT_TRUE(WriteFile(path, "second").ok());
  EXPECT_EQ(*ReadFile(path), "second");
  std::remove(path.c_str());
}

TEST(FileUtilTest, MissingFileIsIoError) {
  Result<std::string> read = ReadFile("/nonexistent/path/nowhere.txt");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists("/nonexistent/path/nowhere.txt"));
}

TEST(FileUtilTest, EmptyFile) {
  const std::string path = ::testing::TempDir() + "/qmatch_empty_test.txt";
  ASSERT_TRUE(WriteFile(path, "").ok());
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  std::remove(path.c_str());
}

TEST(FileUtilTest, ReadFileErrnoTextNamesPathAndCause) {
  const std::string path = ::testing::TempDir() + "/qmatch_no_such_file.txt";
  std::remove(path.c_str());
  Result<std::string> read = ReadFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find(path), std::string::npos)
      << read.status();
  EXPECT_NE(read.status().message().find("No such file"), std::string::npos)
      << read.status();
}

TEST(FileUtilTest, ReadFileUnreadableIsIoError) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root bypasses file permission checks";
  }
  const std::string path = ::testing::TempDir() + "/qmatch_unreadable.txt";
  ASSERT_TRUE(WriteFile(path, "secret").ok());
  ASSERT_EQ(::chmod(path.c_str(), 0), 0);
  Result<std::string> read = ReadFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("Permission denied"),
            std::string::npos)
      << read.status();
  (void)::chmod(path.c_str(), 0644);
  std::remove(path.c_str());
}

TEST(FileUtilTest, WriteFileMissingDirIsIoError) {
  Status status = WriteFile("/nonexistent/dir/qmatch_write.txt", "x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("/nonexistent/dir/qmatch_write.txt"),
            std::string::npos)
      << status;
}

TEST(FileUtilTest, WriteFileAtomicRoundtripLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/qmatch_atomic_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "atomic contents").ok());
  EXPECT_EQ(*ReadFile(path), "atomic contents");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  ASSERT_TRUE(WriteFileAtomic(path, "replaced").ok());
  EXPECT_EQ(*ReadFile(path), "replaced");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileUtilTest, WriteFileAtomicMissingDirIsIoError) {
  Status status = WriteFileAtomic("/nonexistent/dir/qmatch_atomic.txt", "x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

#if QMATCH_FAULT_ENABLED
// Each graceful (kError) failure along the atomic-write sequence must leave
// the destination untouched and clean up its temp file: the reader sees
// old-or-new, never torn.
TEST(FileUtilTest, WriteFileAtomicPreservesOldContentsOnInjectedFailure) {
  const std::string path = ::testing::TempDir() + "/qmatch_atomic_fault.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  for (const char* point : {"persist.write", "persist.fsync",
                            "persist.rename"}) {
    fault::FaultSpec spec;
    spec.action = fault::FaultAction::kError;
    spec.max_fires = 1;
    spec.code = StatusCode::kIoError;
    fault::ScopedFailpoint fp(point, spec);
    Status status = WriteFileAtomic(path, "new contents that must not land");
    ASSERT_FALSE(status.ok()) << point;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << point;
    EXPECT_EQ(*ReadFile(path), "old contents") << point;
    EXPECT_FALSE(FileExists(path + ".tmp")) << point;
  }
  std::remove(path.c_str());
}
#endif  // QMATCH_FAULT_ENABLED

TEST(FileUtilTest, EnsureDirCreatesAndIsIdempotent) {
  const std::string dir = ::testing::TempDir() + "/qmatch_ensure_dir";
  ASSERT_TRUE(EnsureDir(dir).ok());
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string file = dir + "/probe.txt";
  ASSERT_TRUE(WriteFile(file, "x").ok());
  std::remove(file.c_str());
  ::rmdir(dir.c_str());
}

TEST(FileUtilTest, EnsureDirRejectsRegularFile) {
  const std::string path = ::testing::TempDir() + "/qmatch_not_a_dir.txt";
  ASSERT_TRUE(WriteFile(path, "x").ok());
  Status status = EnsureDir(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// --- logging -------------------------------------------------------------

TEST(LoggingTest, LevelRoundtrips) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(original);
}

TEST(LoggingTest, LogMacroRespectsLevel) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return 1;
  };
  QMATCH_LOG(Debug) << "suppressed " << count();
  EXPECT_EQ(evaluations, 0) << "disabled levels must not evaluate args";
  SetLogLevel(original);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ QMATCH_CHECK(1 == 2) << "impossible"; }, "Check failed");
}

TEST(LoggingTest, CheckSuccessIsSilentAndCheap) {
  QMATCH_CHECK(true) << "never evaluated";
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "msg";
  };
  QMATCH_CHECK(2 + 2 == 4) << count();
  EXPECT_EQ(evaluations, 0) << "stream args must not evaluate on success";
}

// --- RetryBackoff -----------------------------------------------------------

TEST(RetryBackoffTest, DeterministicUnderAFixedSeed) {
  for (uint64_t attempt = 0; attempt < 8; ++attempt) {
    const nanoseconds a =
        RetryBackoff(milliseconds(10), milliseconds(500), attempt, 42);
    const nanoseconds b =
        RetryBackoff(milliseconds(10), milliseconds(500), attempt, 42);
    EXPECT_EQ(a.count(), b.count()) << "attempt " << attempt;
  }
}

TEST(RetryBackoffTest, JitterStaysWithinHalfToFullSpan) {
  const int64_t base = 10, cap = 500;
  for (uint64_t attempt = 0; attempt < 16; ++attempt) {
    const int64_t span_ms =
        std::min<int64_t>(base << std::min<uint64_t>(attempt, 20), cap);
    const nanoseconds d = RetryBackoff(milliseconds(base), milliseconds(cap),
                                       attempt, /*seed=*/7);
    EXPECT_GE(d.count(), span_ms * 1'000'000 / 2) << "attempt " << attempt;
    EXPECT_LE(d.count(), span_ms * 1'000'000) << "attempt " << attempt;
  }
}

TEST(RetryBackoffTest, ZeroBaseDisablesSleeping) {
  EXPECT_EQ(RetryBackoff(milliseconds(0), milliseconds(500), 3, 9).count(), 0);
}

TEST(RetryBackoffTest, SeedsDecorrelateTheHerd) {
  // Two clients with different seeds must not march in lockstep: at least
  // one attempt in the window differs.
  bool differs = false;
  for (uint64_t attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = RetryBackoff(milliseconds(10), milliseconds(500), attempt, 1) !=
              RetryBackoff(milliseconds(10), milliseconds(500), attempt, 2);
  }
  EXPECT_TRUE(differs);
}

TEST(RetryBackoffTest, CorpusLoaderScheduleIsUnchanged) {
  // The corpus loader seeds the shared schedule with
  // backoff_seed ^ FNV-1a(path); these durations were computed with the
  // loader's earlier inline formula (base * 2^attempt capped, jittered to
  // [50%, 100%] on the same seeded stream) for the default seed 0x51D3CAFE
  // and the paths "data/schemas/PO1.xsd" and "corpus/missing.xsd".
  struct Pinned {
    uint64_t seed;
    int64_t base_ms;
    int64_t cap_ms;
    uint64_t attempt;
    int64_t ns;
  };
  constexpr uint64_t kPo1 = 0x3d1e82bc16b470e6ULL;
  constexpr uint64_t kMissing = 0x6841b04057764741ULL;
  const Pinned pinned[] = {
      {kPo1, 1, 50, 0, 921973},          {kPo1, 1, 50, 1, 1599214},
      {kPo1, 1, 50, 2, 3828252},         {kPo1, 1, 50, 6, 29886740},
      {kPo1, 1, 50, 7, 25850175},        {kPo1, 5, 50, 2, 19676293},
      {kPo1, 10, 100, 3, 40254627},      {kMissing, 1, 50, 0, 513194},
      {kMissing, 1, 50, 2, 2390923},     {kMissing, 1, 50, 7, 31534762},
      {kMissing, 10, 100, 3, 73576484},
  };
  for (const Pinned& p : pinned) {
    EXPECT_EQ(RetryBackoff(milliseconds(p.base_ms), milliseconds(p.cap_ms),
                           p.attempt, p.seed)
                  .count(),
              p.ns)
        << "base " << p.base_ms << " cap " << p.cap_ms << " attempt "
        << p.attempt;
  }
}

}  // namespace
}  // namespace qmatch
