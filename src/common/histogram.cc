#include "common/histogram.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

#include <algorithm>

namespace nucache
{

LogHistogram::LogHistogram(unsigned max_log2, unsigned sub_bits)
    : subBits(sub_bits), totalCount(0)
{
    if (max_log2 < sub_bits + 1 || max_log2 > 62)
        fatal("LogHistogram: max_log2 ", max_log2, " out of range");
    if (sub_bits > 6)
        fatal("LogHistogram: sub_bits ", sub_bits, " out of range");
    // Octaves [subBits, max_log2] each contribute 2^subBits buckets on
    // top of the 2^subBits exact unit buckets below them.
    const unsigned base = 1u << subBits;
    counts.assign((max_log2 - subBits + 1) * base + base, 0);
}

unsigned
LogHistogram::bucketOf(std::uint64_t value) const
{
    const std::uint64_t base = std::uint64_t{1} << subBits;
    unsigned b;
    if (value < base) {
        b = static_cast<unsigned>(value);
    } else {
        const unsigned e = floorLog2(value);
        const unsigned offset = static_cast<unsigned>(
            (value >> (e - subBits)) - base);
        b = static_cast<unsigned>((e - subBits + 1) * base + offset);
    }
    return std::min(b, numBuckets() - 1);
}

std::uint64_t
LogHistogram::bucketLow(unsigned b) const
{
    const std::uint64_t base = std::uint64_t{1} << subBits;
    if (b < base)
        return b;
    const unsigned g = b / static_cast<unsigned>(base) - 1;
    const std::uint64_t offset = b % base;
    return (base + offset) << g;
}

std::uint64_t
LogHistogram::bucketHigh(unsigned b) const
{
    const std::uint64_t base = std::uint64_t{1} << subBits;
    if (b < base)
        return b + 1;
    const unsigned g = b / static_cast<unsigned>(base) - 1;
    return bucketLow(b) + (std::uint64_t{1} << g);
}

void
LogHistogram::add(std::uint64_t value, std::uint64_t count)
{
    counts[bucketOf(value)] += count;
    totalCount += count;
}

double
LogHistogram::countAtOrBelow(std::uint64_t limit) const
{
    double covered = 0.0;
    for (unsigned b = 0; b < numBuckets(); ++b) {
        if (counts[b] == 0)
            continue;
        const std::uint64_t lo = bucketLow(b);
        const std::uint64_t hi = bucketHigh(b);
        if (hi <= limit + 1) {
            covered += static_cast<double>(counts[b]);
        } else if (lo <= limit) {
            const double frac = static_cast<double>(limit - lo + 1) /
                                static_cast<double>(hi - lo);
            covered += static_cast<double>(counts[b]) * frac;
        }
    }
    return covered;
}

LogHistogram::Cut
LogHistogram::cut(std::uint64_t limit) const
{
    // Buckets are contiguous, so every bucket below the one holding
    // the limit is whole and every bucket above it is excluded.
    Cut c;
    c.bucket = bucketOf(limit);
    const std::uint64_t lo = bucketLow(c.bucket);
    const std::uint64_t hi = bucketHigh(c.bucket);
    c.whole = hi <= limit + 1;
    if (!c.whole) {
        c.frac = static_cast<double>(limit - lo + 1) /
                 static_cast<double>(hi - lo);
    }
    return c;
}

LogHistogramCdf::LogHistogramCdf(const LogHistogram &h)
{
    below.reserve(h.numBuckets() + 1);
    counts.reserve(h.numBuckets());
    double covered = 0.0;
    for (unsigned b = 0; b < h.numBuckets(); ++b) {
        below.push_back(covered);
        counts.push_back(static_cast<double>(h.count(b)));
        covered += counts.back();
    }
    below.push_back(covered);
}

void
LogHistogram::decay()
{
    totalCount = 0;
    for (auto &c : counts) {
        c >>= 1;
        totalCount += c;
    }
}

void
LogHistogram::clear()
{
    std::fill(counts.begin(), counts.end(), 0);
    totalCount = 0;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.numBuckets() != numBuckets() || other.subBits != subBits)
        panic("LogHistogram::merge: bucket layout mismatch");
    for (unsigned b = 0; b < numBuckets(); ++b)
        counts[b] += other.counts[b];
    totalCount += other.totalCount;
}

} // namespace nucache
