#include "core/fs.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/io.h"

namespace hygnn::core {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The IEEE 802.3 check value for the standard 9-byte test input.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(IntegrityFooterTest, RoundTrips) {
  std::string payload = "some binary\0payload";
  const std::string original = payload;
  AppendIntegrityFooter(&payload);
  ASSERT_EQ(payload.size(), original.size() + kIntegrityFooterBytes);
  auto stripped = StripIntegrityFooter(payload);
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(std::string(stripped.value()), original);
}

TEST(IntegrityFooterTest, RejectsMissingTruncatedAndCorrupt) {
  std::string payload = "durable payload bytes";
  AppendIntegrityFooter(&payload);

  // Too short to even hold a footer.
  auto missing = StripIntegrityFooter("tiny");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("missing integrity footer"),
            std::string::npos);

  // Torn tail: footer intact but payload bytes missing.
  std::string torn = payload;
  torn.erase(4, 4);
  auto torn_result = StripIntegrityFooter(torn);
  ASSERT_FALSE(torn_result.ok());
  EXPECT_NE(torn_result.status().message().find("truncated"),
            std::string::npos);

  // Bit rot: length checks out, checksum doesn't.
  std::string corrupt = payload;
  corrupt[2] ^= 0x01;
  auto corrupt_result = StripIntegrityFooter(corrupt);
  ASSERT_FALSE(corrupt_result.ok());
  EXPECT_NE(corrupt_result.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST(FsFaultTest, DurableWriteRoundTripsThroughPosixFs) {
  const std::string path = TempPath("durable_roundtrip.bin");
  ASSERT_TRUE(WriteFileDurable(PosixFs(), path, "payload v1").ok());
  auto read = ReadFileVerified(PosixFs(), path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "payload v1");
  // Replacement is atomic: the new content fully supersedes the old.
  ASSERT_TRUE(WriteFileDurable(PosixFs(), path, "payload v2 longer").ok());
  EXPECT_EQ(ReadFileVerified(PosixFs(), path).value(), "payload v2 longer");
}

TEST(FsFaultTest, CrashedWriteLeavesOldFile) {
  const std::string path = TempPath("old_preserved.bin");
  ASSERT_TRUE(WriteFileDurable(PosixFs(), path, "the good copy").ok());

  FaultInjectingFs faulty(&PosixFs());
  faulty.FailNthAppend(1);
  auto status = WriteFileDurable(faulty, path, "never lands");
  ASSERT_FALSE(status.ok());
  // The failed write went to the temp file; the committed copy and its
  // checksum are untouched, and the temp was cleaned up.
  auto read = ReadFileVerified(PosixFs(), path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "the good copy");
  EXPECT_FALSE(PosixFs().Exists(path + ".tmp"));
}

TEST(FsFaultTest, CrashedFirstWriteLeavesNoFile) {
  const std::string path = TempPath("never_created.bin");
  FaultInjectingFs faulty(&PosixFs());
  faulty.FailAllAppends(true);
  ASSERT_FALSE(WriteFileDurable(faulty, path, "doomed").ok());
  EXPECT_FALSE(PosixFs().Exists(path));
  EXPECT_FALSE(PosixFs().Exists(path + ".tmp"));
}

TEST(FsFaultTest, FailedRenamePreservesOldFile) {
  const std::string path = TempPath("rename_fail.bin");
  ASSERT_TRUE(WriteFileDurable(PosixFs(), path, "committed").ok());
  FaultInjectingFs faulty(&PosixFs());
  faulty.FailRenames(true);
  ASSERT_FALSE(WriteFileDurable(faulty, path, "uncommitted").ok());
  EXPECT_EQ(ReadFileVerified(PosixFs(), path).value(), "committed");
}

TEST(FsFaultTest, EnospcFlavorNamesDiskFull) {
  FaultInjectingFs faulty(&PosixFs());
  faulty.FailNthAppend(1, /*enospc=*/true);
  auto status =
      WriteFileDurable(faulty, TempPath("enospc.bin"), "payload");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("ENOSPC"), std::string::npos);
}

TEST(FsFaultTest, RetryRecoversFromTransientFailure) {
  const std::string path = TempPath("retry.bin");
  FaultInjectingFs faulty(&PosixFs());
  faulty.FailNthAppend(1);  // first attempt dies, second succeeds
  auto status = WriteFileDurableWithRetry(faulty, path, "eventually",
                                          /*attempts=*/3, /*backoff_ms=*/0);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ReadFileVerified(PosixFs(), path).value(), "eventually");
}

TEST(FsFaultTest, RetryGivesUpWhenDiskStaysDead) {
  FaultInjectingFs faulty(&PosixFs());
  faulty.FailAllAppends(true);
  auto status =
      WriteFileDurableWithRetry(faulty, TempPath("dead_disk.bin"),
                                "never", /*attempts=*/3, /*backoff_ms=*/0);
  ASSERT_FALSE(status.ok());
}

TEST(FsFaultTest, TornCloseIsRejectedByVerifiedRead) {
  const std::string path = TempPath("torn_close.bin");
  FaultInjectingFs faulty(&PosixFs());
  faulty.TruncateClosesBy(8);
  // The torn write itself "succeeds" — that's the point: the crash
  // happened after rename, the loader is the last line of defense.
  ASSERT_TRUE(WriteFileDurable(faulty, path, "a payload with a tail").ok());
  auto read = ReadFileVerified(PosixFs(), path);
  ASSERT_FALSE(read.ok());
}

TEST(FsFaultTest, ShortReadIsRejectedByVerifiedRead) {
  const std::string path = TempPath("short_read.bin");
  ASSERT_TRUE(WriteFileDurable(PosixFs(), path, "full contents here").ok());
  FaultInjectingFs faulty(&PosixFs());
  faulty.MaxReadBytes(10);
  auto read = ReadFileVerified(faulty, path);
  ASSERT_FALSE(read.ok());
}

TEST(FsFaultTest, MissingFileIsNotFound) {
  auto read = ReadFileVerified(PosixFs(), TempPath("no_such_file.bin"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ---- every persistence layer survives injected crashes ----

TEST(FsFaultTest, CsvSurvivesCrashMidWrite) {
  const std::string path = TempPath("pairs.csv");
  const std::vector<data::LabeledPair> pairs = {{0, 1, 1.0f}, {1, 2, 0.0f}};
  ASSERT_TRUE(data::WritePairsCsv(pairs, path).ok());

  FaultInjectingFs faulty(&PosixFs());
  faulty.FailNthAppend(1, /*enospc=*/true);
  {
    ScopedFileSystem scoped(&faulty);
    const std::vector<data::LabeledPair> other = {{5, 6, 1.0f}};
    ASSERT_FALSE(data::WritePairsCsv(other, path).ok());
  }
  auto loaded = data::ReadPairsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[1].b, 2);
}

TEST(FsFaultTest, CsvRejectsTornFile) {
  const std::string path = TempPath("torn_pairs.csv");
  FaultInjectingFs faulty(&PosixFs());
  // Tear off the trailer line and part of the last row.
  faulty.TruncateClosesBy(20);
  {
    ScopedFileSystem scoped(&faulty);
    const std::vector<data::LabeledPair> pairs = {{0, 1, 1.0f},
                                                  {1, 2, 0.0f}};
    ASSERT_TRUE(data::WritePairsCsv(pairs, path).ok());
  }
  auto loaded = data::ReadPairsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("#crc32"), std::string::npos);
}

TEST(FsFaultTest, CsvRejectsCorruptRowEvenWithLineBoundaryTear) {
  // A tear exactly at a line boundary looks like a well-formed shorter
  // CSV — only the checksum trailer can catch it.
  const std::string path = TempPath("boundary_tear.csv");
  const std::vector<data::LabeledPair> pairs = {{0, 1, 1.0f}, {1, 2, 0.0f}};
  ASSERT_TRUE(data::WritePairsCsv(pairs, path).ok());
  auto raw = PosixFs().ReadFile(path);
  ASSERT_TRUE(raw.ok());
  const std::string& content = raw.value();
  // Drop the second data row but keep the (now stale) trailer.
  const size_t trailer = content.rfind("#crc32,");
  const size_t row2 = content.rfind('\n', trailer - 2) + 1;
  const std::string torn =
      content.substr(0, row2) + content.substr(trailer);
  ASSERT_TRUE(WriteFileAtomic(PosixFs(), path, torn).ok());
  auto loaded = data::ReadPairsCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace hygnn::core
