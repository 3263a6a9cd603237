/**
 * @file
 * SIMD bit-identity enforcement (see common/simd.hpp's contract):
 *
 *  1. Kernel fuzz: every dispatched scan kernel against its scalar
 *     reference, under both DICE_FORCE_SCALAR settings.
 *  2. TadSet model check: randomized operation sequences against a
 *     plain array-of-structs reference model (RefTadSet, shared with
 *     test_tad.cpp through ref_tad_set.hpp), with auditStorage() and
 *     byte accounting re-verified after every eviction (the per-set
 *     byte invariant regression pin).
 *  3. Codec batch fuzz: the batched compressedSizeBytes(span) route
 *     against both the single-line route and compress().sizeBytes(),
 *     for every codec.
 *
 * Everything here runs twice — wide kernels active and forced scalar —
 * so a divergence is attributed to the kernel, not the model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/bdi.hpp"
#include "compress/cpack.hpp"
#include "compress/fpc.hpp"
#include "compress/hybrid.hpp"
#include "compress/zca.hpp"
#include "core/tad.hpp"
#include "ref_tad_set.hpp"
#include "workloads/datagen.hpp"

namespace dice
{
namespace
{

/** Deterministic splitmix-style fuzz source. */
class Fuzz
{
  public:
    explicit Fuzz(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        state_ += 0x9E3779B97F4A7C15ull;
        return mix64(state_);
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    bool chance(std::uint32_t percent) { return below(100) < percent; }

  private:
    std::uint64_t state_;
};

/** Runs @p body under both force-scalar settings, restoring the env
 *  default afterwards. */
template <typename F>
void
underBothBackends(F body)
{
    simd::setForceScalarForTest(false);
    body(false);
    simd::setForceScalarForTest(true);
    body(true);
    simd::setForceScalarForTest(false);
}

// ---------------------------------------------------------------------
// 1. Kernel fuzz: dispatched vs scalar reference.
// ---------------------------------------------------------------------

TEST(SimdParity, FindAndMatchMaskMatchScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0xF1AD);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(65); // mask kernels cap at 64
            std::vector<std::uint64_t> v(n);
            // A tiny alphabet forces frequent (and multiple) matches.
            for (auto &x : v)
                x = fz.below(8);
            const std::uint64_t key = fz.below(10);
            const std::size_t start = n != 0 ? fz.below(n + 1) : 0;

            EXPECT_EQ(simd::findU64(v.data(), n, key, start),
                      simd::scalar::findU64(v.data(), n, key, start));
            EXPECT_EQ(simd::matchMaskU64(v.data(), n, key),
                      simd::scalar::matchMaskU64(v.data(), n, key));
        }
    });
}

TEST(SimdParity, MinIndexMatchesScalarIncludingTiesAndSkip)
{
    underBothBackends([](bool) {
        Fuzz fz(0x317D);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(40);
            std::vector<std::uint64_t> v(n);
            for (auto &x : v) {
                // Duplicated small values make first-index tie-breaks
                // load-bearing; occasional UINT64_MAX hits the
                // sentinel path.
                x = fz.chance(10) ? ~std::uint64_t{0} : fz.below(6);
            }
            // skip in range, out of range, and == n.
            const std::size_t skip = fz.below(n + 3);
            EXPECT_EQ(simd::minIndexU64(v.data(), n, skip),
                      simd::scalar::minIndexU64(v.data(), n, skip))
                << "n=" << n << " skip=" << skip;
        }
    });
}

TEST(SimdParity, SumAndAllZeroMatchScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0x50FA);
        for (int round = 0; round < 400; ++round) {
            const std::size_t n = fz.below(100);
            std::vector<std::uint16_t> v(n);
            for (auto &x : v)
                x = static_cast<std::uint16_t>(fz.next());
            EXPECT_EQ(simd::sumU16(v.data(), n),
                      simd::scalar::sumU16(v.data(), n));

            std::vector<std::uint8_t> bytes(fz.below(200), 0);
            if (!bytes.empty() && fz.chance(60))
                bytes[fz.below(bytes.size())] =
                    static_cast<std::uint8_t>(1 + fz.below(255));
            EXPECT_EQ(
                simd::allZero(bytes.data(), bytes.size()),
                simd::scalar::allZero(bytes.data(), bytes.size()));
        }
    });
}

TEST(SimdParity, DeltasFitMatchesScalar)
{
    underBothBackends([](bool) {
        Fuzz fz(0xDE17A);
        const std::uint32_t widths[] = {8, 16, 32};
        for (int round = 0; round < 600; ++round) {
            const std::uint32_t n = 4 * (1 + fz.below(4)); // 4..16
            const std::uint32_t bits = widths[fz.below(3)];
            std::vector<std::int64_t> elems(n);
            for (auto &e : elems) {
                // Mix immediates, near-base clusters, and outliers so
                // both accept and reject paths fire.
                switch (fz.below(3)) {
                  case 0:
                    e = static_cast<std::int64_t>(fz.below(100)) - 50;
                    break;
                  case 1:
                    e = 1'000'000 +
                        static_cast<std::int64_t>(fz.below(300)) - 150;
                    break;
                  default:
                    e = static_cast<std::int64_t>(fz.next());
                }
            }
            EXPECT_EQ(simd::deltasFitI64(elems.data(), n, bits),
                      simd::scalar::deltasFitI64(elems.data(), n, bits))
                << "n=" << n << " bits=" << bits;
        }
    });
}

// ---------------------------------------------------------------------
// 2. TadSet vs array-of-structs reference model.
// ---------------------------------------------------------------------

/**
 * Random operation soup over one (set, model) pair. A small address
 * universe guarantees key collisions, pair/single interactions, and
 * constant eviction pressure.
 */
void
fuzzTadSetAgainstModel(std::uint32_t budget, std::uint32_t max_lines,
                       std::uint32_t tag_bytes, std::uint64_t seed)
{
    TadSet set(budget, max_lines, tag_bytes);
    RefTadSet model(budget, max_lines, tag_bytes);
    Fuzz fz(seed);
    std::uint64_t stamp = 0;
    WritebackList wb_set, wb_model;

    for (int op = 0; op < 3000; ++op) {
        const LineAddr line = fz.below(24); // 12 keys
        switch (fz.below(6)) {
          case 0: { // single install, cache-style make-room first
            const auto data =
                static_cast<std::uint32_t>(fz.below(65));
            set.remove(line, 0);
            model.remove(line, 0);
            bool ok = true;
            while (!set.fits(data, 1)) {
                wb_set.clear();
                wb_model.clear();
                const bool a = set.evictLru(line, wb_set);
                const bool b = model.evictLru(line, wb_model);
                ASSERT_EQ(a, b);
                ASSERT_EQ(wb_set.size(), wb_model.size());
                if (!a) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
            const std::uint64_t payload = fz.next();
            const bool dirty = fz.chance(40);
            const bool bai = fz.chance(30);
            ++stamp;
            set.insertSingle(line, data, dirty, payload, bai, stamp);
            model.insertSingle(line, data, dirty, payload, bai, stamp);
            break;
          }
          case 1: { // pair install over an even base
            const LineAddr base = line & ~LineAddr{1};
            const auto data =
                static_cast<std::uint32_t>(fz.below(129));
            set.remove(base, 0);
            model.remove(base, 0);
            set.remove(base | 1, 0);
            model.remove(base | 1, 0);
            bool ok = true;
            while (!set.fits(data, 2)) {
                wb_set.clear();
                wb_model.clear();
                const bool a = set.evictLru(base, wb_set);
                const bool b = model.evictLru(base, wb_model);
                ASSERT_EQ(a, b);
                if (!a) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
            const std::uint64_t p0 = fz.next(), p1 = fz.next();
            const bool d0 = fz.chance(40), d1 = fz.chance(40);
            const bool bai = fz.chance(30);
            ++stamp;
            set.insertPair(base, data, d0, p0, d1, p1, bai, stamp);
            model.insertPair(base, data, d0, p0, d1, p1, bai, stamp);
            break;
          }
          case 2: { // removal (pairs shrink to the survivor's size)
            const std::uint32_t cur = model.dataBytesOf(line);
            const auto remaining = static_cast<std::uint32_t>(
                cur != 0 ? fz.below(cur + 1) : 0);
            expectSameEviction(set.remove(line, remaining),
                               model.remove(line, remaining));
            break;
          }
          case 3: { // LRU eviction under protection
            wb_set.clear();
            wb_model.clear();
            const bool a = set.evictLru(line, wb_set);
            const bool b = model.evictLru(line, wb_model);
            ASSERT_EQ(a, b);
            expectSameWritebacks(wb_set, wb_model);
            // The regression this pins: eviction must leave the
            // incremental byte/line accounting exactly consistent
            // with the planes.
            ASSERT_TRUE(set.auditStorage());
            break;
          }
          case 4: { // LRU touch
            ++stamp;
            set.touch(line, stamp);
            model.touch(line, stamp);
            break;
          }
          default: { // dirty-mark with payload replacement
            const std::uint64_t payload = fz.next();
            EXPECT_EQ(set.markDirty(line, payload),
                      model.markDirty(line, payload));
            break;
          }
        }

        expectSameLookup(set.lookup(line), model.lookup(line), line);
        EXPECT_EQ(set.bytesUsed(), model.bytesUsed());
        EXPECT_EQ(set.lineCount(), model.lineCount());
        EXPECT_EQ(set.itemCount(), model.itemCount());
        if (op % 64 == 0) {
            ASSERT_TRUE(set.auditStorage());
            for (LineAddr probe = 0; probe < 24; ++probe) {
                expectSameLookup(set.lookup(probe),
                                 model.lookup(probe), probe);
            }
        }
    }
    ASSERT_TRUE(set.auditStorage());
}

TEST(TadSetModel, RandomOpsMatchReferenceModel)
{
    underBothBackends([](bool scalar) {
        const std::uint64_t base_seed = scalar ? 0x5CA1A4 : 0x51D4;
        // DICE TAD geometry, Alloy tag pricing, a wide set with
        // 8-B tags, Touché's 1-B signatures and SCC's 8-way set, so
        // every capacity()/plane-offset case is exercised.
        fuzzTadSetAgainstModel(kTadSetBytes, kTadMaxLines, kTadTagBytes,
                               base_seed);
        fuzzTadSetAgainstModel(kTadSetBytes, kTadMaxLines,
                               kAlloyTagBytes, base_seed + 1);
        fuzzTadSetAgainstModel(4 * kTadSetBytes, 32, kAlloyTagBytes,
                               base_seed + 2);
        fuzzTadSetAgainstModel(kTadSetBytes, kTadMaxLines,
                               /*tag_bytes=*/1, base_seed + 3);
        fuzzTadSetAgainstModel(8 * kTadSetBytes, 32, /*tag_bytes=*/2,
                               base_seed + 4);
    });
}

// ---------------------------------------------------------------------
// 3. Codec batched sizing vs single-line route vs compress().
// ---------------------------------------------------------------------

Line
randomLine(Fuzz &fz)
{
    Line line;
    switch (fz.below(4)) {
      case 0: { // synthesized class: hits real FPC/BDI encodings
        constexpr CompClass kClasses[] = {
            CompClass::Zero, CompClass::Ptr,  CompClass::Int,
            CompClass::C36,  CompClass::Half, CompClass::Rand,
        };
        return DataGenerator::synthesize(kClasses[fz.below(6)],
                                         fz.below(1 << 20), fz.next());
      }
      case 1: // random bytes (usually incompressible)
        for (auto &b : line)
            b = static_cast<std::uint8_t>(fz.next());
        return line;
      case 2: // all zero with occasional single set byte
        line.fill(0);
        if (fz.chance(50))
            line[fz.below(kLineSize)] =
                static_cast<std::uint8_t>(fz.next());
        return line;
      default: // small sign-extended words: FPC prefix classes
        for (std::uint32_t w = 0; w < kLineSize / 4; ++w) {
            const auto v = static_cast<std::int32_t>(
                static_cast<std::int64_t>(fz.below(512)) - 256);
            std::memcpy(line.data() + 4 * w, &v, 4);
        }
        return line;
    }
}

TEST(CodecBatchParity, BatchedSizingMatchesSingleAndCompress)
{
    const ZcaCodec zca;
    const FpcCodec fpc;
    const BdiCodec bdi;
    const CpackCodec cpack;
    const HybridCodec hybrid;
    const Codec *codecs[] = {&zca, &fpc, &bdi, &cpack, &hybrid};

    underBothBackends([&](bool scalar) {
        Fuzz fz(scalar ? 0xBA7C4 : 0xC0DEC);
        for (int round = 0; round < 24; ++round) {
            const std::size_t n = 1 + fz.below(33);
            std::vector<Line> lines(n);
            for (auto &line : lines)
                line = randomLine(fz);

            for (const Codec *codec : codecs) {
                std::vector<std::uint32_t> batched(n, ~0u);
                codec->compressedSizeBytes(lines.data(), n,
                                           batched.data());
                for (std::size_t i = 0; i < n; ++i) {
                    const std::uint32_t single =
                        codec->compressedSizeBytes(lines[i]);
                    EXPECT_EQ(batched[i], single)
                        << codec->name() << " line " << i;
                    EXPECT_EQ(single,
                              codec->compress(lines[i]).sizeBytes())
                        << codec->name() << " line " << i;
                }
            }
        }
    });
}

} // namespace
} // namespace dice
