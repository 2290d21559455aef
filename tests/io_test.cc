// Tests for the EINTR-safe raw-I/O layer (src/util/io): resume loops
// under injected EINTR storms and short transfers, the durable atomic
// write's tmp+fsync+rename+dir-fsync sequence (the parent-directory fsync
// is the regression target — rename is atomic but not durable without
// it) and the writers built on it, and the append path heartbeats ride on.

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "engine/spec.h"
#include "graph/binary_io.h"
#include "gtest/gtest.h"
#include "stream/checkpoint.h"
#include "stream/dynamic/turnstile_io.h"
#include "util/io.h"

namespace cyclestream::io {
namespace {

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "io_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Installs fault injection for one scope; restores the previous pointer
// (and asserts the faults were actually consumed where the test says so).
class ScopedFaults {
 public:
  explicit ScopedFaults(SyscallFaults* faults)
      : prev_(ExchangeSyscallFaults(faults)) {}
  ~ScopedFaults() { ExchangeSyscallFaults(prev_); }

 private:
  SyscallFaults* prev_;
};

std::string PatternBytes(std::size_t n) {
  std::string data(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  return data;
}

TEST(IoTest, WriteFullSurvivesEintrStormAndShortWrites) {
  const std::string path = TestDir("write_full") + "/data";
  const std::string want = PatternBytes(10000);

  SyscallFaults faults;
  faults.eintr_writes = 25;
  faults.short_write_cap = 137;  // Forces ~73 partial transfers.
  {
    ScopedFaults scoped(&faults);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFull(fd, want.data(), want.size()));
    ::close(fd);
  }
  EXPECT_EQ(faults.eintr_writes, 0) << "EINTR budget not consumed";

  std::string got;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &got, &error)) << error;
  EXPECT_EQ(got, want);
}

TEST(IoTest, ReadFullSurvivesEintrStormAndShortReads) {
  const std::string path = TestDir("read_full") + "/data";
  const std::string want = PatternBytes(10000);
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, want, &error)) << error;

  SyscallFaults faults;
  faults.eintr_reads = 25;
  faults.short_read_cap = 113;
  ScopedFaults scoped(&faults);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::string got(want.size(), '\0');
  std::size_t n = 0;
  ASSERT_TRUE(ReadFull(fd, got.data(), got.size(), &n));
  ::close(fd);
  EXPECT_EQ(n, want.size());
  EXPECT_EQ(got, want);
  EXPECT_EQ(faults.eintr_reads, 0) << "EINTR budget not consumed";
}

TEST(IoTest, ReadFullReportsEofShortOfRequest) {
  const std::string path = TestDir("read_eof") + "/data";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "abc", &error)) << error;
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  char buf[16];
  std::size_t n = 0;
  // EOF before the request is filled is success with got < n, not an error.
  ASSERT_TRUE(ReadFull(fd, buf, sizeof(buf), &n));
  ::close(fd);
  EXPECT_EQ(n, 3u);
}

TEST(IoTest, ReadFileToStringReportsMissingFile) {
  std::string out;
  std::string error;
  EXPECT_FALSE(
      ReadFileToString(TestDir("missing") + "/nope", &out, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(IoTest, DirNameHandlesEveryShape) {
  EXPECT_EQ(DirName("/a/b/c"), "/a/b");
  EXPECT_EQ(DirName("/top"), "/");
  EXPECT_EQ(DirName("bare"), ".");
  EXPECT_EQ(DirName("rel/file"), "rel");
}

// The satellite regression: WriteFileAtomic must fsync the *parent
// directory* after the rename — without it a crash right after rename can
// lose the directory entry entirely.
TEST(IoTest, WriteFileAtomicFsyncsFileThenParentDirectory) {
  const std::string dir = TestDir("durable");
  const std::string path = dir + "/state.bin";

  SyscallFaults faults;
  {
    ScopedFaults scoped(&faults);
    std::string error;
    ASSERT_TRUE(WriteFileAtomic(path, PatternBytes(500), &error)) << error;
  }
  // Exactly two fsyncs, in order: the tmp file's contents, then the
  // directory entry the rename landed in.
  ASSERT_EQ(faults.fsynced.size(), 2u);
  EXPECT_EQ(faults.fsynced[0], path + ".tmp");
  EXPECT_EQ(faults.fsynced[1], dir);
}

// The v1 edge stream, v2 turnstile stream and spec file writers go through
// WriteFileAtomic too: the same [file, dir] fsync order.
TEST(IoTest, StreamAndSpecWritersFsyncFileThenParentDirectory) {
  const std::string dir = TestDir("writers");
  const auto fsyncs = [](const std::function<bool(std::string*)>& write) {
    SyscallFaults faults;
    ScopedFaults scoped(&faults);
    std::string error;
    EXPECT_TRUE(write(&error)) << error;
    return faults.fsynced;
  };
  using Synced = std::vector<std::string>;

  const std::vector<cyclestream::Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
  const std::string v1 = dir + "/edges.bin";
  EXPECT_EQ(fsyncs([&](std::string* error) {
              return cyclestream::WriteBinaryEdgeStream(
                  edges.data(), edges.size(), 3, v1, error);
            }),
            (Synced{v1 + ".tmp", dir}));

  cyclestream::TurnstileStream updates = cyclestream::TurnstileFromEdges(edges);
  updates.emplace_back(edges[1], cyclestream::TurnstileOp::kDelete);
  const std::string v2 = dir + "/updates.bin";
  EXPECT_EQ(fsyncs([&](std::string* error) {
              return cyclestream::WriteTurnstileStream(updates, 3, v2, error);
            }),
            (Synced{v2 + ".tmp", dir}));

  cyclestream::engine::QuerySpec spec;
  spec.name = "q";
  spec.kind = cyclestream::engine::QueryKind::kArbF2;
  const std::string specs = dir + "/queries.specs";
  EXPECT_EQ(fsyncs([&](std::string* error) {
              return cyclestream::engine::WriteSpecFile(specs, {spec}, error);
            }),
            (Synced{specs + ".tmp", dir}));
}

TEST(IoTest, WriteFileAtomicSurvivesFaultsAndReplacesAtomically) {
  const std::string dir = TestDir("atomic");
  const std::string path = dir + "/state.bin";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "old contents", &error)) << error;

  const std::string want = PatternBytes(4000);
  SyscallFaults faults;
  faults.eintr_writes = 10;
  faults.eintr_fsyncs = 5;
  faults.short_write_cap = 61;
  {
    ScopedFaults scoped(&faults);
    ASSERT_TRUE(WriteFileAtomic(path, want, &error)) << error;
  }
  EXPECT_EQ(faults.eintr_writes, 0);
  EXPECT_EQ(faults.eintr_fsyncs, 0);

  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got, &error)) << error;
  EXPECT_EQ(got, want);
  // No tmp residue: success cleans up the staging file via rename.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// The streaming form: a header patched in after the payload, later
// appends still landing at the end, and a writer dropped before Commit
// leaving the file already at the path untouched and no tmp file.
TEST(IoTest, AtomicFileWriterPatchesInPlaceAndCommitsOrLeavesNoTrace) {
  const std::string path = TestDir("atomic_stream") + "/out.bin";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "old contents", &error)) << error;
  {
    AtomicFileWriter writer;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    ASSERT_TRUE(writer.Append("....payload", &error)) << error;
  }
  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got, &error)) << error;
  EXPECT_EQ(got, "old contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  AtomicFileWriter writer;
  ASSERT_TRUE(writer.Open(path, &error)) << error;
  ASSERT_TRUE(writer.Append("....payload", &error)) << error;
  ASSERT_TRUE(writer.WriteAt(0, "HEAD", &error)) << error;
  ASSERT_TRUE(writer.Append("+tail", &error)) << error;
  ASSERT_TRUE(writer.Commit(&error)) << error;
  ASSERT_TRUE(ReadFileToString(path, &got, &error)) << error;
  EXPECT_EQ(got, "HEADpayload+tail");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(IoTest, AppendToFileCreatesAndAppends) {
  const std::string path = TestDir("append") + "/log";
  std::string error;
  ASSERT_TRUE(AppendToFile(path, "one", &error)) << error;
  SyscallFaults faults;
  faults.eintr_writes = 4;
  faults.short_write_cap = 1;  // Byte-at-a-time: the resume loop again.
  {
    ScopedFaults scoped(&faults);
    ASSERT_TRUE(AppendToFile(path, "two", &error)) << error;
  }
  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got, &error)) << error;
  EXPECT_EQ(got, "onetwo");
}

// The checkpoint layer rides on the same wrappers: a snapshot written
// under an EINTR storm must restore bit-identically (this is the seam the
// supervisor's own SIGTERM handler interrupts in practice).
TEST(IoTest, SnapshotSurvivesEintrStorm) {
  const std::string path = TestDir("snapshot") + "/snap.bin";
  cyclestream::Snapshot snap;
  snap.algorithm_id = "io-test/v1";
  snap.stream_fingerprint = 0xABCD;
  snap.stream_length = 100;
  snap.pass = 1;
  snap.position = 50;
  snap.elements_processed = 150;
  snap.state = PatternBytes(3000);

  SyscallFaults faults;
  faults.eintr_writes = 8;
  faults.eintr_fsyncs = 3;
  faults.short_write_cap = 97;
  std::string error;
  {
    ScopedFaults scoped(&faults);
    ASSERT_TRUE(cyclestream::SaveSnapshot(path, snap, &error)) << error;
  }
  // The snapshot path is durable end to end: file fsync + dir fsync.
  ASSERT_GE(faults.fsynced.size(), 2u);
  EXPECT_EQ(faults.fsynced.back(), DirName(path));

  faults.eintr_reads = 8;
  faults.short_read_cap = 89;
  std::optional<cyclestream::Snapshot> restored;
  {
    ScopedFaults scoped(&faults);
    restored = cyclestream::LoadSnapshot(path, &error);
  }
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->algorithm_id, snap.algorithm_id);
  EXPECT_EQ(restored->state, snap.state);
  EXPECT_EQ(restored->position, snap.position);
  EXPECT_EQ(restored->elements_processed, snap.elements_processed);
}

}  // namespace
}  // namespace cyclestream::io
