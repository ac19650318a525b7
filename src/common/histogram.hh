/**
 * @file
 * Bucketed histograms.
 *
 * LogHistogram has log-linear ("HDR") buckets: each power-of-two
 * octave is split into 2^subBits linear sub-buckets.  This is the
 * hardware-plausible shape used by the Next-Use monitor: a modest
 * array of saturating counters indexed by the distance's exponent and
 * a couple of mantissa bits, giving ~12-25% relative resolution at any
 * magnitude (plain power-of-two buckets are too coarse for the
 * selection algorithm's window test near the knee).  It supports the
 * epoch-decay operation (halving all counters) that the paper family
 * uses to age profile information; LogHistogramCdf is an O(1)
 * cumulative view of one.
 */

#ifndef NUCACHE_COMMON_HISTOGRAM_HH
#define NUCACHE_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace nucache
{

/**
 * Histogram with log-linear bucket boundaries.
 *
 * With S = subBits and B = 2^S: values below B get exact unit buckets;
 * a value v >= B with exponent e = floor(log2 v) falls in bucket
 * (e - S + 1) * B + ((v >> (e - S)) - B).  Values beyond the covered
 * range saturate into the last bucket.
 */
class LogHistogram
{
  public:
    /**
     * @param max_log2 largest exponent covered without saturation.
     * @param sub_bits linear sub-buckets per octave = 2^sub_bits.
     */
    explicit LogHistogram(unsigned max_log2 = 32, unsigned sub_bits = 2);

    /** Add @p count observations of @p value. */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** @return the bucket index that @p value falls into. */
    unsigned bucketOf(std::uint64_t value) const;

    /** @return the inclusive lower bound of bucket @p b. */
    std::uint64_t bucketLow(unsigned b) const;

    /** @return the exclusive upper bound of bucket @p b. */
    std::uint64_t bucketHigh(unsigned b) const;

    /** @return the raw count in bucket @p b. */
    std::uint64_t count(unsigned b) const { return counts[b]; }

    /** @return the number of buckets. */
    unsigned
    numBuckets() const
    {
        return static_cast<unsigned>(counts.size());
    }

    /** @return the total number of observations. */
    std::uint64_t total() const { return totalCount; }

    /**
     * @return the number of observations with value <= @p limit,
     * attributing a bucket fractionally when @p limit splits it
     * (linear interpolation within the bucket).  @p limit must be
     * below UINT64_MAX.
     */
    double countAtOrBelow(std::uint64_t limit) const;

    /** Where a limit falls in the bucket layout (see cut()). */
    struct Cut
    {
        /** The bucket holding the limit (the last one if saturated). */
        unsigned bucket = 0;
        /** Every value of `bucket` is at or below the limit. */
        bool whole = false;
        /** Share of `bucket` at or below the limit when not whole. */
        double frac = 0.0;
    };

    /**
     * @return where @p limit cuts this histogram's bucket layout.  It
     * depends on the layout only, so one cut serves every histogram of
     * the same layout (see LogHistogramCdf).
     */
    Cut cut(std::uint64_t limit) const;

    /** @return whether @p other has the same bucket layout. */
    bool
    sameLayout(const LogHistogram &other) const
    {
        return subBits == other.subBits &&
               numBuckets() == other.numBuckets();
    }

    /** Halve every counter (epoch aging). */
    void decay();

    /** Zero every counter. */
    void clear();

    /** Accumulate another histogram (bucket layout must match). */
    void merge(const LogHistogram &other);

  private:
    unsigned subBits;
    std::vector<std::uint64_t> counts;
    std::uint64_t totalCount;
};

/**
 * The cumulative counts of a LogHistogram, taken once so that repeated
 * CDF queries cost O(1): countAtOrBelow(limit) is the count below the
 * cut bucket plus that bucket's count times the cut fraction.  The
 * running sums are accumulated in double, bucket by bucket, as
 * LogHistogram::countAtOrBelow does, so at(h.cut(limit)) equals
 * h.countAtOrBelow(limit) bit for bit.  The view is a snapshot: later
 * changes to the histogram do not reach it.
 */
class LogHistogramCdf
{
  public:
    explicit LogHistogramCdf(const LogHistogram &h);

    /**
     * @return the number of observations at or below the limit that
     * produced @p c, which must come from a histogram of the same
     * layout.
     */
    double
    at(const LogHistogram::Cut &c) const
    {
        return c.whole ? below[c.bucket + 1]
                       : below[c.bucket] + counts[c.bucket] * c.frac;
    }

  private:
    /** below[b]: observations in buckets [0, b); one extra entry. */
    std::vector<double> below;
    /** Bucket counts as double. */
    std::vector<double> counts;
};

} // namespace nucache

#endif // NUCACHE_COMMON_HISTOGRAM_HH
