#include "datagen.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace dice
{

const char *
compClassName(CompClass cls)
{
    switch (cls) {
      case CompClass::Zero:
        return "zero";
      case CompClass::Ptr:
        return "ptr";
      case CompClass::Int:
        return "int";
      case CompClass::C36:
        return "c36";
      case CompClass::Half:
        return "half";
      case CompClass::Rand:
        return "rand";
      default:
        return "?";
    }
}

void
DataGenerator::addRegion(LineAddr start, LineAddr end,
                         const WorkloadProfile &profile)
{
    dice_assert(start < end, "empty data region");
    Region reg{start, end, &profile, {}};
    const double weights[6] = {profile.w_zero, profile.w_ptr,
                               profile.w_int, profile.w_c36,
                               profile.w_half, profile.w_rand};
    double acc = 0.0;
    for (int i = 0; i < 6; ++i) {
        acc += weights[i];
        reg.cum_weights[i] = acc;
    }
    dice_assert(acc > 0.0, "profile %s has zero class weights",
                profile.name.c_str());
    // Keep regions_ sorted by start so lookups can binary-search.
    // Regions come from a bump allocator and never overlap.
    const auto pos = std::lower_bound(
        regions_.begin(), regions_.end(), start,
        [](const Region &r, LineAddr s) { return r.start < s; });
    regions_.insert(pos, reg);
}

const DataGenerator::Region *
DataGenerator::regionOf(LineAddr line) const
{
    // First region with start > line; its predecessor is the only
    // candidate that can contain the line (regions are disjoint).
    const auto it = std::upper_bound(
        regions_.begin(), regions_.end(), line,
        [](LineAddr l, const Region &r) { return l < r.start; });
    if (it == regions_.begin())
        return nullptr;
    const Region &r = *(it - 1);
    return line < r.end ? &r : nullptr;
}

CompClass
DataGenerator::pageClass(LineAddr line) const
{
    return regionClass(regionOf(line), line);
}

CompClass
DataGenerator::regionClass(const Region *r, LineAddr line) const
{
    if (!r)
        return CompClass::Rand; // Unowned space: treat as garbage.

    // cum_weights was prefix-summed once at addRegion() time, so the
    // per-line draw only scales and scans.
    const std::uint64_t page = pageOfLine(line);
    const double u =
        static_cast<double>(mix64(page, 0xC1A55ull) >> 11) * 0x1.0p-53 *
        r->cum_weights[5];
    for (int i = 0; i < 6; ++i) {
        if (u < r->cum_weights[i])
            return static_cast<CompClass>(i);
    }
    return CompClass::Rand;
}

CompClass
DataGenerator::lineClass(LineAddr line) const
{
    // A small fraction of lines deviate from their page's class so
    // that predictor accuracy saturates near (not at) 100%. Noise is
    // applied at pair granularity so both halves of a spatial pair
    // stay coherent.
    const std::uint64_t pair = line >> 1;
    const double u =
        static_cast<double>(mix64(pair, 0x0D15Eull) >> 11) * 0x1.0p-53;
    if (u < kNoiseFraction)
        return CompClass::Rand;
    return pageClass(line);
}

namespace
{

void
storeU32(Line &out, std::uint32_t idx, std::uint32_t v)
{
    std::memcpy(out.data() + 4 * idx, &v, 4);
}

void
storeU64(Line &out, std::uint32_t idx, std::uint64_t v)
{
    std::memcpy(out.data() + 8 * idx, &v, 8);
}

} // namespace

Line
DataGenerator::synthesize(CompClass cls, LineAddr line,
                          std::uint64_t version)
{
    Line out{};
    const std::uint64_t page = pageOfLine(line);
    const std::uint64_t seed = mix64(line, version);

    switch (cls) {
      case CompClass::Zero:
        return out;

      case CompClass::Ptr: {
        // Pointer-like 8-byte elements around one per-page base, with
        // byte-range offsets: BDI B8D1 (16 B); a spatial pair shares
        // the page base, so the joint encoding is 24 B.
        const std::uint64_t base =
            (mix64(page, 0xB45Eull) | (std::uint64_t{1} << 44)) &
            ~std::uint64_t{0xFF};
        for (std::uint32_t i = 0; i < 8; ++i)
            storeU64(out, i, base + (mix64(seed, i) & 0x7F));
        return out;
      }

      case CompClass::Int: {
        // Small signed 4-byte integers: FPC Sign8 / BDI B4D1 (20 B).
        for (std::uint32_t i = 0; i < 16; ++i) {
            const auto v = static_cast<std::int32_t>(
                               mix64(seed, i) % 200) - 100;
            storeU32(out, i, static_cast<std::uint32_t>(v));
        }
        return out;
      }

      case CompClass::C36: {
        // 4-byte values = large per-page base + 16-bit deltas: only
        // BDI B4D2 (exactly 36 B) succeeds; a pair sharing the page
        // base encodes to exactly 68 B — the paper's threshold case.
        const std::uint32_t base =
            0x40000000u |
            (static_cast<std::uint32_t>(mix64(page, 0xC36ull)) &
             0x0FFF0000u);
        // Deltas stay within +/-15000 so that *cross-line* deltas in a
        // shared-base pair encoding still fit signed 16 bits.
        for (std::uint32_t i = 0; i < 16; ++i) {
            const auto delta = static_cast<std::int32_t>(
                                   mix64(seed, i) % 30000) - 15000;
            storeU32(out, i,
                     static_cast<std::uint32_t>(
                         static_cast<std::int32_t>(base) + delta));
        }
        return out;
      }

      case CompClass::Half: {
        // Alternate small-magnitude and full-entropy words: FPC packs
        // the former, stores the latter raw (~54 B); BDI fails.
        for (std::uint32_t i = 0; i < 16; ++i) {
            if (i % 2 == 0) {
                const auto v = static_cast<std::int32_t>(
                                   mix64(seed, i) % 20000) - 10000;
                storeU32(out, i, static_cast<std::uint32_t>(v));
            } else {
                storeU32(out, i,
                         static_cast<std::uint32_t>(mix64(seed, i)) |
                             0x01010000u);
            }
        }
        return out;
      }

      case CompClass::Rand:
      default: {
        for (std::uint32_t i = 0; i < 8; ++i)
            storeU64(out, i, mix64(seed, 0xFFEEull + i) | 0x0101010101010101ull);
        return out;
      }
    }
}

Line
DataGenerator::bytes(LineAddr line, std::uint64_t version) const
{
    return synthesize(lineClass(line), line, version);
}

} // namespace dice
