/**
 * @file
 * Tests for the log-linear histogram and its CDF view, including the
 * bucket-boundary algebra the Next-Use monitor depends on.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/histogram.hh"
#include "common/rng.hh"

namespace nucache
{
namespace
{

TEST(LogHistogram, SmallValuesGetExactBuckets)
{
    LogHistogram h(32, 2);
    for (std::uint64_t v = 0; v < 4; ++v)
        EXPECT_EQ(h.bucketOf(v), v) << "value " << v;
    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketHigh(2), 3u);
}

TEST(LogHistogram, BucketBoundsInvertBucketOf)
{
    LogHistogram h(32, 2);
    // Every value must fall inside [low, high) of its own bucket.
    for (std::uint64_t v : {0ull, 1ull, 3ull, 4ull, 5ull, 7ull, 8ull,
                            9ull, 100ull, 1023ull, 1024ull, 123456ull,
                            (1ull << 31)}) {
        const unsigned b = h.bucketOf(v);
        EXPECT_GE(v, h.bucketLow(b)) << "value " << v;
        EXPECT_LT(v, h.bucketHigh(b)) << "value " << v;
    }
}

TEST(LogHistogram, BucketsAreContiguous)
{
    LogHistogram h(32, 2);
    for (unsigned b = 0; b + 1 < h.numBuckets(); ++b)
        EXPECT_EQ(h.bucketHigh(b), h.bucketLow(b + 1)) << "bucket " << b;
}

TEST(LogHistogram, BucketOfIsMonotone)
{
    LogHistogram h(32, 2);
    unsigned prev = 0;
    for (std::uint64_t v = 0; v < 100000; v += 7) {
        const unsigned b = h.bucketOf(v);
        EXPECT_GE(b, prev);
        prev = b;
    }
}

TEST(LogHistogram, RelativeResolutionBounded)
{
    // With 2 sub-bits every bucket spans at most 25% of its low bound.
    LogHistogram h(32, 2);
    for (unsigned b = 4; b + 1 < h.numBuckets(); ++b) {
        const double lo = static_cast<double>(h.bucketLow(b));
        const double width = static_cast<double>(h.bucketHigh(b)) - lo;
        EXPECT_LE(width / lo, 0.25 + 1e-9) << "bucket " << b;
    }
}

TEST(LogHistogram, SaturatesIntoLastBucket)
{
    LogHistogram h(8, 2);
    h.add(~std::uint64_t{0});
    EXPECT_EQ(h.count(h.numBuckets() - 1), 1u);
}

TEST(LogHistogram, TotalTracksAdds)
{
    LogHistogram h(32, 2);
    h.add(5, 3);
    h.add(1000);
    EXPECT_EQ(h.total(), 4u);
}

TEST(LogHistogram, CountAtOrBelowWholeAndFractionalBuckets)
{
    LogHistogram h(32, 2);
    h.add(10, 100);  // bucket [10, 12)
    // Entire bucket below a large limit.
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(1000), 100.0);
    // Limit below the bucket.
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(9), 0.0);
    // Limit = 10 covers 1 of the 2 values in [10,12).
    EXPECT_NEAR(h.countAtOrBelow(10), 50.0, 1e-9);
}

/**
 * The limits that stress a layout: both edges of every bucket, one
 * inside it, and the top of the range the selection queries.
 */
std::vector<std::uint64_t>
edgeLimits(const LogHistogram &h)
{
    std::vector<std::uint64_t> limits;
    for (unsigned b = 0; b < h.numBuckets(); ++b) {
        limits.push_back(h.bucketLow(b));
        limits.push_back(h.bucketHigh(b) - 1);
        limits.push_back((h.bucketLow(b) + h.bucketHigh(b)) / 2);
    }
    limits.push_back(h.bucketHigh(h.numBuckets() - 1));
    limits.push_back(std::numeric_limits<std::uint64_t>::max() / 2);
    return limits;
}

/** The prefix CDF answers exactly (==) what the bucket walk answers. */
void
expectCdfMatches(const LogHistogram &h, const std::string &what)
{
    const LogHistogramCdf cdf(h);
    for (const std::uint64_t limit : edgeLimits(h)) {
        EXPECT_EQ(cdf.at(h.cut(limit)), h.countAtOrBelow(limit))
            << what << ", limit " << limit;
    }
}

TEST(LogHistogramCdf, EmptyHistogramIsZeroEverywhere)
{
    const LogHistogram h(32, 2);
    expectCdfMatches(h, "empty");
    EXPECT_EQ(LogHistogramCdf(h).at(h.cut(1000)), 0.0);
}

TEST(LogHistogramCdf, MatchesBucketWalkOnRandomHistograms)
{
    Rng rng(12);
    for (int trial = 0; trial < 50; ++trial) {
        const unsigned sub_bits = static_cast<unsigned>(rng.between(0, 3));
        const unsigned max_log2 =
            static_cast<unsigned>(rng.between(sub_bits + 1, 40));
        LogHistogram h(max_log2, sub_bits);
        // Sparse: most buckets stay zero, so runs of empty buckets
        // sit between populated ones and at both ends.
        const std::uint64_t adds = rng.between(1, 40);
        for (std::uint64_t i = 0; i < adds; ++i) {
            const std::uint64_t v = rng.below(std::uint64_t{1}
                                              << rng.between(0, 45));
            h.add(v, rng.between(1, 1'000'000));
        }
        if (trial % 2 == 1)
            h.decay();
        expectCdfMatches(h, "trial " + std::to_string(trial));
    }
}

TEST(LogHistogramCdf, SaturatedLastBucket)
{
    LogHistogram h(10, 2);
    h.add(5, 3);
    h.add(std::uint64_t{1} << 40, 7);  // saturates into the last bucket
    const unsigned last = h.numBuckets() - 1;
    EXPECT_EQ(h.bucketOf(std::uint64_t{1} << 40), last);
    expectCdfMatches(h, "saturated");
    const LogHistogramCdf cdf(h);
    EXPECT_EQ(cdf.at(h.cut(h.bucketHigh(last) - 1)), 10.0);
    EXPECT_EQ(cdf.at(h.cut(std::numeric_limits<std::uint64_t>::max() / 2)),
              10.0);
    EXPECT_LT(cdf.at(h.cut(h.bucketLow(last))), 10.0);
}

TEST(LogHistogramCdf, CutLocatesTheLimit)
{
    const LogHistogram h(32, 2);
    for (const std::uint64_t limit : edgeLimits(h)) {
        const LogHistogram::Cut c = h.cut(limit);
        if (c.bucket + 1 < h.numBuckets()) {
            EXPECT_GE(limit, h.bucketLow(c.bucket));
            EXPECT_LT(limit, h.bucketHigh(c.bucket));
        }
        EXPECT_EQ(c.whole, h.bucketHigh(c.bucket) <= limit + 1);
    }
}

TEST(LogHistogram, DecayHalvesCounts)
{
    LogHistogram h(32, 2);
    h.add(100, 9);
    h.decay();
    EXPECT_EQ(h.total(), 4u);
    h.decay();
    EXPECT_EQ(h.total(), 2u);
}

TEST(LogHistogram, ClearZeroes)
{
    LogHistogram h(32, 2);
    h.add(12, 7);
    h.clear();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.countAtOrBelow(~std::uint64_t{0} >> 1), 0.0);
}

TEST(LogHistogram, MergeAccumulates)
{
    LogHistogram a(32, 2), b(32, 2);
    a.add(16, 2);
    b.add(16, 3);
    b.add(64, 1);
    a.merge(b);
    EXPECT_EQ(a.total(), 6u);
    EXPECT_EQ(a.count(a.bucketOf(16)), 5u);
}

/** Parameterized sweep over sub-bucket resolutions. */
class LogHistogramSubBits : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LogHistogramSubBits, BoundsStayConsistent)
{
    const unsigned sub = GetParam();
    LogHistogram h(40, sub);
    for (std::uint64_t v = 1; v < (1ull << 20); v = v * 3 + 1) {
        const unsigned b = h.bucketOf(v);
        ASSERT_GE(v, h.bucketLow(b)) << "sub=" << sub << " v=" << v;
        ASSERT_LT(v, h.bucketHigh(b)) << "sub=" << sub << " v=" << v;
    }
    for (unsigned b = 0; b + 1 < h.numBuckets(); ++b)
        ASSERT_EQ(h.bucketHigh(b), h.bucketLow(b + 1));
}

INSTANTIATE_TEST_SUITE_P(Resolutions, LogHistogramSubBits,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

} // anonymous namespace
} // namespace nucache
