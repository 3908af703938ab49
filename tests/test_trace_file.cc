/**
 * @file
 * Unit tests for file-backed traces and the latency histogram.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/stats.hh"
#include "core/trace_file.hh"

using namespace dsarp;

namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    std::string
    writeTemp(const std::string &content)
    {
        const std::string path =
            testing::TempDir() + "dsarp_trace_test.txt";
        std::ofstream out(path);
        out << content;
        return path;
    }
};

} // namespace

TEST_F(TraceFileTest, ParsesRecordsAndComments)
{
    const std::string path = writeTemp(
        "# a comment\n"
        "10 1000\n"
        "\n"
        "20 0x2000 3000\n"
        "0 40 # trailing comment\n");
    TraceFileSource trace(path);
    EXPECT_EQ(trace.size(), 3u);

    TraceRecord r = trace.next();
    EXPECT_EQ(r.gap, 10);
    EXPECT_EQ(r.readAddr, 0x1000u);
    EXPECT_FALSE(r.hasWriteback);

    r = trace.next();
    EXPECT_EQ(r.gap, 20);
    EXPECT_EQ(r.readAddr, 0x2000u);
    EXPECT_TRUE(r.hasWriteback);
    EXPECT_EQ(r.writebackAddr, 0x3000u);

    r = trace.next();
    EXPECT_EQ(r.gap, 0);
    EXPECT_EQ(r.readAddr, 0x40u);
}

TEST_F(TraceFileTest, LoopsAtEnd)
{
    const std::string path = writeTemp("1 10\n2 20\n");
    TraceFileSource trace(path);
    trace.next();
    EXPECT_EQ(trace.loops(), 0u);
    trace.next();  // Consumes the last record: the cursor wraps.
    EXPECT_EQ(trace.loops(), 1u);
    const TraceRecord r = trace.next();
    EXPECT_EQ(r.gap, 1) << "stream restarted from the first record";
    EXPECT_EQ(trace.loops(), 1u);
}

TEST_F(TraceFileTest, RoundTripThroughWriter)
{
    std::vector<TraceRecord> records;
    for (int i = 1; i <= 5; ++i) {
        TraceRecord rec;
        rec.gap = i * 3;
        rec.readAddr = static_cast<Addr>(i) * 0x40;
        rec.hasWriteback = (i % 2) == 0;
        rec.writebackAddr = rec.readAddr + 0x100000;
        records.push_back(rec);
    }
    const std::string path = testing::TempDir() + "dsarp_rt_trace.txt";
    TraceFileSource::write(path, records);
    TraceFileSource trace(path);
    ASSERT_EQ(trace.size(), records.size());
    for (const TraceRecord &expected : records) {
        const TraceRecord got = trace.next();
        EXPECT_EQ(got.gap, expected.gap);
        EXPECT_EQ(got.readAddr, expected.readAddr);
        EXPECT_EQ(got.hasWriteback, expected.hasWriteback);
        if (expected.hasWriteback) {
            EXPECT_EQ(got.writebackAddr, expected.writebackAddr);
        }
    }
}

TEST_F(TraceFileTest, ProgrammaticConstruction)
{
    TraceRecord rec;
    rec.gap = 7;
    rec.readAddr = 0x80;
    TraceFileSource trace(std::vector<TraceRecord>{rec});
    EXPECT_EQ(trace.next().gap, 7);
    EXPECT_EQ(trace.next().gap, 7);
    EXPECT_EQ(trace.loops(), 2u);
}

TEST_F(TraceFileTest, RejectsMissingFile)
{
    EXPECT_EXIT(TraceFileSource("/nonexistent/definitely_not_here.txt"),
                testing::ExitedWithCode(1), "trace");
}

TEST_F(TraceFileTest, RejectsEmptyFile)
{
    const std::string path = writeTemp("# only a comment\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "no records");
}

TEST_F(TraceFileTest, RejectsGarbageHex)
{
    const std::string path = writeTemp("1 0xZZ\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "read address");
}

TEST_F(TraceFileTest, RejectsTrailingJunkInAddress)
{
    const std::string path = writeTemp("1 0x10junk\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "read address");
}

TEST_F(TraceFileTest, RejectsOversizedAddress)
{
    // 17 significant hex digits: one bit past uint64.
    const std::string path = writeTemp("1 0x1ffffffffffffffff\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "exceeds 64 bits");
}

TEST_F(TraceFileTest, RejectsSignedAddress)
{
    // std::stoull would silently accept (and negate) this.
    const std::string path = writeTemp("1 -0x40\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "read address");
}

TEST_F(TraceFileTest, RejectsNegativeGap)
{
    const std::string path = writeTemp("-3 0x40\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "gap");
}

TEST_F(TraceFileTest, RejectsWrongFieldCount)
{
    const std::string path = writeTemp("1 0x40 0x80 0xc0\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                "field");
}

TEST_F(TraceFileTest, ErrorsNameFileAndLine)
{
    const std::string path = writeTemp("1 0x40\n2 bogus!\n");
    EXPECT_EXIT(TraceFileSource trace(path), testing::ExitedWithCode(1),
                ":2");
}

TEST(LatencyHistogram, EmptyIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Values below kSubBuckets land in unit-width buckets: value ==
    // bucket index, so the low range carries no quantization at all.
    LatencyHistogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(3);
    for (int v = 0; v < 4; ++v)
        EXPECT_EQ(h.bucket(v), v == 3 ? 2u : 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 9.0 / 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 3.0);
}

TEST(LatencyHistogram, BucketBoundsBracketEveryValue)
{
    for (const std::uint64_t v :
         {0ull, 1ull, 31ull, 32ull, 33ull, 100ull, 1000ull, 123456789ull,
          (1ull << 62), ~0ull}) {
        const int i = LatencyHistogram::bucketIndex(v);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, LatencyHistogram::kBuckets);
        EXPECT_LE(LatencyHistogram::bucketLow(i), v);
        EXPECT_GE(LatencyHistogram::bucketHigh(i), v);
    }
}

TEST(LatencyHistogram, PercentilesOrdered)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.add(v);
    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LT(p50, p90);
    EXPECT_LE(p90, p99);
    // The log-linear buckets bound the relative error at 1/32.
    EXPECT_NEAR(p50, 500.0, 500.0 * LatencyHistogram::kMaxRelativeError);
    EXPECT_NEAR(p99, 990.0, 990.0 * LatencyHistogram::kMaxRelativeError);
}

TEST(LatencyHistogram, ExtremesAreExact)
{
    LatencyHistogram h;
    h.add(7);
    h.add(123456);
    h.add(~0ull);  // Must not overflow the bucket math.
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), ~0ull);
    EXPECT_DOUBLE_EQ(h.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), static_cast<double>(~0ull));
}

TEST(LatencyHistogram, MergeMatchesCombinedAdds)
{
    LatencyHistogram a;
    LatencyHistogram b;
    LatencyHistogram both;
    for (std::uint64_t v = 1; v <= 200; ++v) {
        ((v % 2) ? a : b).add(v * 3);
        both.add(v * 3);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (const double p : {10.0, 50.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p));

    LatencyHistogram empty;
    a.merge(empty);  // Merging an empty histogram is a no-op.
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
}

TEST(LatencyHistogram, ResetClears)
{
    LatencyHistogram h;
    h.add(10);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(3), 0u);
}
