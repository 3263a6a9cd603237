/**
 * @file
 * Tests for types, RNG, stats, and the bitstream reader/writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "compress/bitstream.hpp"

namespace dice
{
namespace
{

TEST(Types, AddressSlicing)
{
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(63), 0u);
    EXPECT_EQ(lineOf(64), 1u);
    EXPECT_EQ(addrOf(1), 64u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(pageOfLine(63), 0u);
    EXPECT_EQ(pageOfLine(64), 1u);
    EXPECT_EQ(kLinesPerPage, 64u);
}

TEST(Types, SizeLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.between(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, Mix64IsStable)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
    EXPECT_NE(mix64(1, 2), mix64(2, 1)); // order-sensitive
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, StatGroupDumpAndGet)
{
    Counter c;
    c += 3;
    StatGroup g("grp");
    g.addCounter("events", c);
    g.addFormula("ratio", [] { return 0.5; });
    EXPECT_DOUBLE_EQ(g.get("events"), 3.0);
    EXPECT_DOUBLE_EQ(g.get("ratio"), 0.5);
    EXPECT_TRUE(std::isnan(g.get("missing")));
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("grp.events 3"), std::string::npos);
    EXPECT_NE(dump.find("grp.ratio 0.5"), std::string::npos);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Bitstream, WriteReadRoundTrip)
{
    BitWriter bw;
    bw.write(0b101, 3);
    bw.write(0xABCD, 16);
    bw.write(1, 1);
    bw.write(0x123456789ABCDEFull, 60);
    EXPECT_EQ(bw.bitSize(), 80u);
    EXPECT_EQ(bw.byteSize(), 10u);

    BitReader br(bw.bytes());
    EXPECT_EQ(br.read(3), 0b101u);
    EXPECT_EQ(br.read(16), 0xABCDu);
    EXPECT_EQ(br.read(1), 1u);
    EXPECT_EQ(br.read(60), 0x123456789ABCDEFull);
}

TEST(Bitstream, UnalignedSequences)
{
    // Several randomized streams, each filled to just under the
    // writer's fixed capacity (2x a line, the codec payload bound).
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        BitWriter bw;
        std::vector<std::pair<std::uint64_t, std::uint32_t>> writes;
        std::uint32_t bits = 0;
        while (bits + 64 <= 8 * kMaxPayloadBytes) {
            const std::uint32_t n =
                static_cast<std::uint32_t>(rng.between(1, 64));
            const std::uint64_t v =
                rng.next() & (n == 64 ? ~0ull : ((1ull << n) - 1));
            writes.emplace_back(v, n);
            bw.write(v, n);
            bits += n;
        }
        EXPECT_EQ(bw.bitSize(), bits);
        BitReader br(bw.bytes());
        for (const auto &[v, n] : writes)
            EXPECT_EQ(br.read(n), v);
    }
}

TEST(Bitstream, ByteSizeRoundsUp)
{
    BitWriter bw;
    bw.write(1, 1);
    EXPECT_EQ(bw.byteSize(), 1u);
    bw.write(0, 7);
    EXPECT_EQ(bw.byteSize(), 1u);
    bw.write(0, 1);
    EXPECT_EQ(bw.byteSize(), 2u);
}

} // namespace
} // namespace dice
