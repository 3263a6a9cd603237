#include "fpc.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "compress/bitstream.hpp"

namespace dice
{

namespace
{

std::uint32_t
loadWord(const Line &line, std::uint32_t idx)
{
    std::uint32_t w;
    std::memcpy(&w, line.data() + 4 * idx, 4);
    return w;
}

void
storeWord(Line &line, std::uint32_t idx, std::uint32_t w)
{
    std::memcpy(line.data() + 4 * idx, &w, 4);
}

bool
isRepeatedByte(std::uint32_t w)
{
    const std::uint32_t b = w & 0xFF;
    const std::uint32_t rep = b * 0x01010101u;
    return w == rep;
}

#if defined(__x86_64__)

/** Cached cpuid probe: does this CPU execute AVX2? */
bool
cpuHasAvx2()
{
    static const bool has = __builtin_cpu_supports("avx2") != 0;
    return has;
}

/**
 * AVX2 twin of FpcCodec::scalarBits: all sixteen words are classified
 * at once, with per-word costs selected by blends applied in reverse
 * priority order (so the scalar classifier's first match wins), then
 * summed; only the zero-run token loop stays scalar, walking a 16-bit
 * occupancy mask. Exactly matches scalarBits for every input. The
 * target attribute compiles it for AVX2 even in a portable build;
 * compressedBits() calls it only when cpuHasAvx2().
 */
__attribute__((target("avx2"))) std::uint32_t
fpcBitsAvx2(const Line &line)
{
    const __m256i zero = _mm256_setzero_si256();
    // fitsSigned(w, b) == ((w + 2^(b-1)) & ~(2^b - 1)) == 0; the bias
    // add maps the representable range onto [0, 2^b) exactly.
    const __m256i shuf = _mm256_setr_epi8(
        0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12, 0, 0, 0,
        0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12);

    std::uint32_t zmask = 0;
    __m256i cost_sum = _mm256_setzero_si256();
    for (std::uint32_t half = 0; half < 2; ++half) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(line.data() + 32 * half));
        const __m256i is_zero = _mm256_cmpeq_epi32(x, zero);
        zmask |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                     _mm256_castsi256_ps(is_zero)))
                 << (8 * half);

        const __m256i s4 = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_add_epi32(x, _mm256_set1_epi32(8)),
                             _mm256_set1_epi32(~0xF)),
            zero);
        const __m256i s8 = _mm256_cmpeq_epi32(
            _mm256_and_si256(
                _mm256_add_epi32(x, _mm256_set1_epi32(128)),
                _mm256_set1_epi32(~0xFF)),
            zero);
        const __m256i s16 = _mm256_cmpeq_epi32(
            _mm256_and_si256(
                _mm256_add_epi32(x, _mm256_set1_epi32(0x8000)),
                _mm256_set1_epi32(~0xFFFF)),
            zero);
        const __m256i lo0 = _mm256_cmpeq_epi32(
            _mm256_and_si256(x, _mm256_set1_epi32(0xFFFF)), zero);
        // TwoSignedBytes: each halfword fits 8 signed bits — test the
        // 16-bit lanes, then require both lanes of the word to pass.
        const __m256i h8 = _mm256_cmpeq_epi16(
            _mm256_and_si256(
                _mm256_add_epi16(x, _mm256_set1_epi16(128)),
                _mm256_set1_epi16(static_cast<short>(0xFF00))),
            zero);
        const __m256i tsb =
            _mm256_cmpeq_epi32(h8, _mm256_set1_epi32(-1));
        // RepeatedByte: the word equals its byte 0 replicated.
        const __m256i rep =
            _mm256_cmpeq_epi32(x, _mm256_shuffle_epi8(x, shuf));

        __m256i cost = _mm256_set1_epi32(35);
        cost = _mm256_blendv_epi8(cost, _mm256_set1_epi32(11), rep);
        const __m256i g19 =
            _mm256_or_si256(s16, _mm256_or_si256(lo0, tsb));
        cost = _mm256_blendv_epi8(cost, _mm256_set1_epi32(19), g19);
        cost = _mm256_blendv_epi8(cost, _mm256_set1_epi32(11), s8);
        cost = _mm256_blendv_epi8(cost, _mm256_set1_epi32(7), s4);
        cost = _mm256_andnot_si256(is_zero, cost);
        cost_sum = _mm256_add_epi32(cost_sum, cost);
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), cost_sum);
    std::uint32_t bits = 0;
    for (const std::uint32_t lane : lanes)
        bits += lane;
    // Each maximal run of L zero words costs ceil(L/8) 6-bit tokens.
    while (zmask != 0) {
        zmask >>= __builtin_ctz(zmask);
        const std::uint32_t run =
            static_cast<std::uint32_t>(__builtin_ctz(~zmask));
        bits += 6 * ((run + 7) / 8);
        zmask >>= run;
    }
    return (bits + 7) / 8 >= kLineSize ? 8 * kLineSize : bits;
}

#endif // __x86_64__

} // namespace

std::uint32_t
FpcCodec::scalarBits(const Line &line)
{
    std::uint32_t bits = 0;
    std::uint32_t i = 0;
    while (i < kWords) {
        const std::uint32_t w = loadWord(line, i);
        if (w == 0) {
            std::uint32_t run = 1;
            while (run < 8 && i + run < kWords &&
                   loadWord(line, i + run) == 0) {
                ++run;
            }
            bits += 6;
            i += run;
            continue;
        }
        const auto sw = static_cast<std::int32_t>(w);
        const std::uint32_t hi = w >> 16;
        const std::uint32_t lo = w & 0xFFFF;
        if (fitsSigned(sw, 4)) {
            bits += 7;
        } else if (fitsSigned(sw, 8)) {
            bits += 11;
        } else if (fitsSigned(sw, 16)) {
            bits += 19;
        } else if (lo == 0) {
            bits += 19;
        } else if (fitsSigned(signExtend(hi, 16), 8) &&
                   fitsSigned(signExtend(lo, 16), 8)) {
            bits += 19;
        } else if (isRepeatedByte(w)) {
            bits += 11;
        } else {
            bits += 35;
        }
        ++i;
    }
    return (bits + 7) / 8 >= kLineSize ? 8 * kLineSize : bits;
}

std::uint32_t
FpcCodec::compressedBits(const Line &line) const
{
#if defined(__x86_64__)
    if (cpuHasAvx2())
        return fpcBitsAvx2(line);
#endif
    return scalarBits(line);
}

std::uint32_t
FpcCodec::compressedSizeBytes(const Line &line) const
{
    return (compressedBits(line) + 7) / 8;
}

Encoded
FpcCodec::compress(const Line &line) const
{
    BitWriter bw;

    std::uint32_t i = 0;
    while (i < kWords) {
        const std::uint32_t w = loadWord(line, i);

        if (w == 0) {
            // Collapse up to 8 consecutive zero words into one token.
            std::uint32_t run = 1;
            while (run < 8 && i + run < kWords &&
                   loadWord(line, i + run) == 0) {
                ++run;
            }
            bw.write(ZeroRun, 3);
            bw.write(run - 1, 3);
            i += run;
            continue;
        }

        const auto sw = static_cast<std::int32_t>(w);
        const std::uint32_t hi = w >> 16;
        const std::uint32_t lo = w & 0xFFFF;

        if (fitsSigned(sw, 4)) {
            bw.write(Sign4, 3);
            bw.write(w & 0xF, 4);
        } else if (fitsSigned(sw, 8)) {
            bw.write(Sign8, 3);
            bw.write(w & 0xFF, 8);
        } else if (fitsSigned(sw, 16)) {
            bw.write(Sign16, 3);
            bw.write(w & 0xFFFF, 16);
        } else if (lo == 0) {
            bw.write(HalfZeroPad, 3);
            bw.write(hi, 16);
        } else if (fitsSigned(signExtend(hi, 16), 8) &&
                   fitsSigned(signExtend(lo, 16), 8)) {
            bw.write(TwoSignedBytes, 3);
            bw.write(hi & 0xFF, 8);
            bw.write(lo & 0xFF, 8);
        } else if (isRepeatedByte(w)) {
            bw.write(RepeatedByte, 3);
            bw.write(w & 0xFF, 8);
        } else {
            bw.write(Uncompressed, 3);
            bw.write(w, 32);
        }
        ++i;
    }

    // A line that expands past its raw size is left uncompressed.
    if (bw.byteSize() >= kLineSize)
        return encodeRaw(line);

    Encoded enc;
    enc.algo = CompAlgo::Fpc;
    enc.payload = bw.bytes();
    enc.bits = bw.bitSize();
    return enc;
}

Line
FpcCodec::decompress(const Encoded &enc) const
{
    if (enc.algo == CompAlgo::None)
        return decodeRaw(enc);
    dice_assert(enc.algo == CompAlgo::Fpc, "FPC decompress of wrong algo");

    Line line{};
    BitReader br(enc.payload);

    std::uint32_t i = 0;
    while (i < kWords) {
        const auto pattern = static_cast<Pattern>(br.read(3));
        switch (pattern) {
          case ZeroRun: {
            const std::uint32_t run =
                static_cast<std::uint32_t>(br.read(3)) + 1;
            dice_assert(i + run <= kWords, "FPC zero run overflows line");
            for (std::uint32_t k = 0; k < run; ++k)
                storeWord(line, i + k, 0);
            i += run;
            break;
          }
          case Sign4:
            storeWord(line, i++,
                      static_cast<std::uint32_t>(signExtend(br.read(4), 4)));
            break;
          case Sign8:
            storeWord(line, i++,
                      static_cast<std::uint32_t>(signExtend(br.read(8), 8)));
            break;
          case Sign16:
            storeWord(
                line, i++,
                static_cast<std::uint32_t>(signExtend(br.read(16), 16)));
            break;
          case HalfZeroPad:
            storeWord(line, i++,
                      static_cast<std::uint32_t>(br.read(16)) << 16);
            break;
          case TwoSignedBytes: {
            const auto hi = static_cast<std::uint32_t>(
                signExtend(br.read(8), 8)) & 0xFFFF;
            const auto lo = static_cast<std::uint32_t>(
                signExtend(br.read(8), 8)) & 0xFFFF;
            storeWord(line, i++, (hi << 16) | lo);
            break;
          }
          case RepeatedByte: {
            const auto b = static_cast<std::uint32_t>(br.read(8));
            storeWord(line, i++, b * 0x01010101u);
            break;
          }
          case Uncompressed:
            storeWord(line, i++, static_cast<std::uint32_t>(br.read(32)));
            break;
          default:
            dice_panic("FPC: bad pattern");
        }
    }
    return line;
}

} // namespace dice
