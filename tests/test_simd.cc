/**
 * @file
 * Differential tests of the runtime-dispatched SIMD kernels against
 * their scalar twins.
 *
 * Every ISA variant is called directly (guarded by
 * __builtin_cpu_supports), not only through the dispatcher, so a
 * kernel that the host does not pick is still checked wherever it can
 * run.  Rows cover every width 1..64, including widths that leave a
 * partial vector, with ties (the lowest index must win), all-equal
 * rows and the extreme values 0 and ~0.
 */

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

namespace nucache
{
namespace
{

using Row = std::vector<std::uint64_t>;

/** Every row shape of one width @p n. */
std::vector<Row>
rowsOfWidth(std::uint32_t n, Rng &rng)
{
    const std::uint64_t top = ~std::uint64_t{0};
    std::vector<Row> rows;
    // Distinct-ish random values (LRU stamps look like this).
    Row random(n);
    for (auto &v : random)
        v = rng.next();
    rows.push_back(random);
    // Heavy ties: values from {0, 1, 2}.
    Row ties(n);
    for (auto &v : ties)
        v = rng.below(3);
    rows.push_back(ties);
    // Ties at the extremes: values from {~0 - 1, ~0}.
    Row high(n);
    for (auto &v : high)
        v = top - rng.below(2);
    rows.push_back(high);
    // Mixed extremes: 0, ~0 and random values.
    Row extremes(n);
    for (auto &v : extremes) {
        const std::uint64_t pick = rng.below(3);
        v = pick == 0 ? 0 : pick == 1 ? top : rng.next();
    }
    rows.push_back(extremes);
    // All equal, at 0, at ~0 and at an arbitrary value.
    rows.emplace_back(n, 0);
    rows.emplace_back(n, top);
    rows.emplace_back(n, 0x5eed5eed5eedull);
    // A unique minimum in the last lane, and a minimum held by the
    // first and the last lane.
    Row last(n, 100);
    last[n - 1] = 7;
    rows.push_back(last);
    Row ends(n, 100);
    ends[0] = 7;
    ends[n - 1] = 7;
    rows.push_back(ends);
    return rows;
}

/** Keys worth comparing a row against: its values, 0, ~0 and a miss. */
std::vector<std::uint64_t>
keysFor(const Row &row)
{
    std::vector<std::uint64_t> keys(row.begin(), row.end());
    keys.push_back(0);
    keys.push_back(~std::uint64_t{0});
    keys.push_back(0x0123456789abcdefull);
    return keys;
}

using EqFn = std::uint64_t (*)(const std::uint64_t *, std::uint32_t,
                               std::uint64_t);
using MinFn = std::uint32_t (*)(const std::uint64_t *, std::uint32_t);

/** Check @p eq against eqMask64Scalar on every width and row shape. */
void
expectEqMaskMatchesScalar(EqFn eq)
{
    Rng rng(41);
    for (std::uint32_t n = 1; n <= 64; ++n) {
        for (const Row &row : rowsOfWidth(n, rng)) {
            for (const std::uint64_t key : keysFor(row)) {
                ASSERT_EQ(eq(row.data(), n, key),
                          simd::eqMask64Scalar(row.data(), n, key))
                    << "n=" << n << " key=" << key;
            }
        }
    }
}

/** Check @p min against minIndex64Scalar on every width and shape. */
void
expectMinIndexMatchesScalar(MinFn min)
{
    Rng rng(43);
    for (std::uint32_t n = 1; n <= 64; ++n) {
        for (const Row &row : rowsOfWidth(n, rng)) {
            ASSERT_EQ(min(row.data(), n),
                      simd::minIndex64Scalar(row.data(), n))
                << "n=" << n;
        }
    }
}

/**
 * Run @p body on a row of @p n values whose last lane ends exactly
 * where a page with no access rights begins, so any read past the
 * row faults instead of passing silently.
 */
template <typename Body>
void
withRowAtPageEnd(std::uint32_t n, Body body)
{
    const std::size_t page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    void *map = ::mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(map, MAP_FAILED);
    char *base = static_cast<char *>(map);
    ASSERT_EQ(::mprotect(base + page, page, PROT_NONE), 0);
    auto *row = reinterpret_cast<std::uint64_t *>(base + page) - n;
    for (std::uint32_t w = 0; w < n; ++w)
        row[w] = 1000 - w % 5;
    body(row);
    ::munmap(map, 2 * page);
}

TEST(Simd, ScalarTwinsOnKnownRows)
{
    const std::uint64_t row[] = {5, 3, 9, 3, 0, ~std::uint64_t{0}, 0};
    EXPECT_EQ(simd::eqMask64Scalar(row, 7, 3), 0b0001010u);
    EXPECT_EQ(simd::eqMask64Scalar(row, 7, 0), 0b1010000u);
    EXPECT_EQ(simd::eqMask64Scalar(row, 7, 42), 0u);
    // Lowest index wins a tie.
    EXPECT_EQ(simd::minIndex64Scalar(row, 7), 4u);
    EXPECT_EQ(simd::minIndex64Scalar(row, 4), 1u);
    EXPECT_EQ(simd::minIndex64Scalar(row, 1), 0u);
}

TEST(Simd, DispatchedKernelsMatchScalar)
{
    // Whatever the host picks (or the scalar fallback off x86).
    expectEqMaskMatchesScalar(&simd::eqMask64);
    expectMinIndexMatchesScalar(&simd::minIndex64);
}

#if NUCACHE_SIMD_DISPATCH

TEST(Simd, EqMask64Avx512MatchesScalar)
{
    if (!__builtin_cpu_supports("avx512f"))
        GTEST_SKIP() << "host lacks AVX-512F";
    expectEqMaskMatchesScalar(&simd::eqMask64Avx512);
}

TEST(Simd, EqMask64Avx2MatchesScalar)
{
    if (!__builtin_cpu_supports("avx2"))
        GTEST_SKIP() << "host lacks AVX2";
    expectEqMaskMatchesScalar(&simd::eqMask64Avx2);
}

TEST(Simd, MinIndex64Avx512MatchesScalar)
{
    if (!__builtin_cpu_supports("avx512f"))
        GTEST_SKIP() << "host lacks AVX-512F";
    expectMinIndexMatchesScalar(&simd::minIndex64Avx512);
}

TEST(Simd, MaskedTailsNeverReadPastTheRow)
{
    if (!__builtin_cpu_supports("avx512f"))
        GTEST_SKIP() << "host lacks AVX-512F";
    for (const std::uint32_t n : {1u, 3u, 8u, 13u, 32u, 63u}) {
        withRowAtPageEnd(n, [n](const std::uint64_t *row) {
            EXPECT_EQ(simd::minIndex64Avx512(row, n),
                      simd::minIndex64Scalar(row, n));
            EXPECT_EQ(simd::eqMask64Avx512(row, n, row[n - 1]),
                      simd::eqMask64Scalar(row, n, row[n - 1]));
        });
    }
}

#endif // NUCACHE_SIMD_DISPATCH

} // namespace
} // namespace nucache
