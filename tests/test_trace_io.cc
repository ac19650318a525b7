/**
 * @file
 * Tests for the binary/text trace formats and the trace cursor.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace_io.hh"

namespace nucache
{
namespace
{

std::vector<TraceRecord>
sampleRecords()
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 17; ++i) {
        TraceRecord r;
        r.pc = 0x400000 + i * 4;
        r.addr = 0x10000 + i * 64;
        r.nonMemGap = static_cast<std::uint32_t>(i * 3);
        r.isWrite = (i % 3 == 0);
        recs.push_back(r);
    }
    return recs;
}

TEST(TraceIo, BinaryRoundTrip)
{
    const auto recs = sampleRecords();
    std::stringstream ss;
    writeBinaryTrace(ss, recs);
    const auto back = readBinaryTrace(ss);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].pc, recs[i].pc);
        EXPECT_EQ(back[i].addr, recs[i].addr);
        EXPECT_EQ(back[i].nonMemGap, recs[i].nonMemGap);
        EXPECT_EQ(back[i].isWrite, recs[i].isWrite);
    }
}

TEST(TraceIo, BinaryRoundTripEmpty)
{
    std::stringstream ss;
    writeBinaryTrace(ss, {});
    EXPECT_TRUE(readBinaryTrace(ss).empty());
}

TEST(TraceIo, TextRoundTrip)
{
    const auto recs = sampleRecords();
    std::stringstream ss;
    writeTextTrace(ss, recs);
    const auto back = readTextTrace(ss);
    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].pc, recs[i].pc);
        EXPECT_EQ(back[i].addr, recs[i].addr);
        EXPECT_EQ(back[i].nonMemGap, recs[i].nonMemGap);
        EXPECT_EQ(back[i].isWrite, recs[i].isWrite);
    }
}

TEST(TraceIo, TextIgnoresCommentsAndBlankLines)
{
    std::stringstream ss("# a comment\n\n0x10 0x40 2 r\n");
    const auto recs = readTextTrace(ss);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].pc, 0x10u);
    EXPECT_EQ(recs[0].addr, 0x40u);
    EXPECT_EQ(recs[0].nonMemGap, 2u);
    EXPECT_FALSE(recs[0].isWrite);
}

TEST(TraceIoDeathTest, BinaryBadMagic)
{
    std::stringstream ss("NOTATRACE-------");
    EXPECT_EXIT(readBinaryTrace(ss), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(TraceIoDeathTest, BinaryTruncated)
{
    std::stringstream full;
    writeBinaryTrace(full, sampleRecords());
    const std::string payload = full.str();
    std::stringstream cut(payload.substr(0, payload.size() - 5));
    // Seekable streams catch the short payload at header validation.
    EXPECT_EXIT(readBinaryTrace(cut), ::testing::ExitedWithCode(1),
                "header claims");
}

TEST(TraceIoDeathTest, TextMalformedLine)
{
    std::stringstream ss("0x10 0x40 nonsense\n");
    EXPECT_EXIT(readTextTrace(ss), ::testing::ExitedWithCode(1),
                "malformed");
}

/** A header count far beyond the payload must be rejected up front. */
TEST(TraceIo, BinaryCorruptCountRejectedWithoutAllocation)
{
    std::stringstream full;
    writeBinaryTrace(full, sampleRecords());
    std::string payload = full.str();
    // Overwrite the u64 count (bytes 8..15, little-endian) with a
    // number that would demand a ~400 EB reserve if trusted.
    for (int i = 8; i < 16; ++i)
        payload[static_cast<std::size_t>(i)] = '\xff';
    std::stringstream ss(payload);
    const TraceParseResult out = tryReadBinaryTrace(ss);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("header claims"), std::string::npos)
        << out.error;
    EXPECT_TRUE(out.records.empty());
    // The rejected parse must not have sized a buffer off the header.
    EXPECT_LE(out.records.capacity(), payload.size());
}

/** A count just one past the payload is equally untrustworthy. */
TEST(TraceIo, BinaryCountOffByOneRejected)
{
    std::stringstream full;
    writeBinaryTrace(full, sampleRecords());
    std::string payload = full.str();
    payload[8] = static_cast<char>(sampleRecords().size() + 1);
    std::stringstream ss(payload);
    const TraceParseResult out = tryReadBinaryTrace(ss);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("header claims"), std::string::npos)
        << out.error;
}

TEST(TraceIoDeathTest, BinaryCorruptCountIsFatalInStrictReader)
{
    std::stringstream full;
    writeBinaryTrace(full, sampleRecords());
    std::string payload = full.str();
    for (int i = 8; i < 16; ++i)
        payload[static_cast<std::size_t>(i)] = '\xff';
    std::stringstream ss(payload);
    EXPECT_EXIT(readBinaryTrace(ss), ::testing::ExitedWithCode(1),
                "header claims");
}

/** Truncation inside the header itself (before the count completes). */
TEST(TraceIo, BinaryTruncatedHeaderReportsCleanly)
{
    std::stringstream ss(std::string("NUTRACE1\x03\x00", 10));
    const TraceParseResult out = tryReadBinaryTrace(ss);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("truncated header"), std::string::npos)
        << out.error;
}

/** Truncation mid-payload via the non-fatal reader. */
TEST(TraceIo, BinaryTruncatedPayloadReportsCleanly)
{
    std::stringstream full;
    writeBinaryTrace(full, sampleRecords());
    const std::string payload = full.str();
    std::stringstream cut(payload.substr(0, payload.size() - 5));
    const TraceParseResult out = tryReadBinaryTrace(cut);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("header claims"), std::string::npos)
        << out.error;
}

TEST(TraceIo, TryReadBinaryRoundTrip)
{
    const auto recs = sampleRecords();
    std::stringstream ss;
    writeBinaryTrace(ss, recs);
    const TraceParseResult out = tryReadBinaryTrace(ss);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.error.empty());
    ASSERT_EQ(out.records.size(), recs.size());
    EXPECT_EQ(out.records.back().addr, recs.back().addr);
}

TEST(TraceIo, TryReadTextReportsMalformedLine)
{
    std::stringstream ss("0x10 0x40 2 r\n0x10 0x40 nonsense\n");
    const TraceParseResult out = tryReadTextTrace(ss);
    EXPECT_FALSE(out.ok);
    EXPECT_NE(out.error.find("line 2"), std::string::npos) << out.error;
    EXPECT_TRUE(out.records.empty());
}

/** Writers must report stream failure instead of dropping bytes. */
TEST(TraceIoDeathTest, BinaryWriteFailureIsFatal)
{
    std::stringstream ss;
    ss.setstate(std::ios::failbit);
    EXPECT_EXIT(writeBinaryTrace(ss, sampleRecords()),
                ::testing::ExitedWithCode(1), "trace write failed");
}

TEST(TraceIoDeathTest, TextWriteFailureIsFatal)
{
    std::stringstream ss;
    ss.setstate(std::ios::failbit);
    EXPECT_EXIT(writeTextTrace(ss, sampleRecords()),
                ::testing::ExitedWithCode(1), "trace write failed");
}

TEST(TraceSource, ReplaysAndResets)
{
    TraceSource src("t", sampleRecords());
    EXPECT_EQ(src.records().size(), 17u);
    TraceRecord rec;
    std::size_t n = 0;
    while (src.next(rec))
        ++n;
    EXPECT_EQ(n, 17u);
    EXPECT_FALSE(src.next(rec));
    src.reset();
    EXPECT_TRUE(src.next(rec));
    EXPECT_EQ(rec.pc, 0x400000u);
}

TEST(TraceSource, NameIsPreserved)
{
    TraceSource src("my-trace", std::vector<TraceRecord>{});
    EXPECT_EQ(src.name(), "my-trace");
}

} // anonymous namespace
} // namespace nucache
