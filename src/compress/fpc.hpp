/**
 * @file
 * Frequent Pattern Compression (Alameldeen & Wood, 2004).
 *
 * The line is treated as sixteen 32-bit words; each word is encoded as a
 * 3-bit prefix plus a variable-size payload. Runs of zero words collapse
 * into a single prefix with a 3-bit run length.
 */

#ifndef DICE_COMPRESS_FPC_HPP
#define DICE_COMPRESS_FPC_HPP

#include "compress/compressor.hpp"

namespace dice
{

/** FPC codec over 64-B lines. */
class FpcCodec : public Codec
{
  public:
    const char *name() const override { return "FPC"; }

    Encoded compress(const Line &line) const override;
    Line decompress(const Encoded &enc) const override;

    /**
     * Size of compress(line) in bits without materializing the
     * bitstream (hot path for the cache model). Returns 8*kLineSize
     * when FPC would fall back to raw storage. On x86 CPUs with AVX2
     * (a cached cpuid probe) an AVX2 twin of scalarBits() classifies
     * all sixteen words at once.
     */
    std::uint32_t compressedBits(const Line &line) const;

    /**
     * The portable classifier behind compressedBits(), which every
     * other CPU runs; the AVX2 twin must return exactly this.
     */
    static std::uint32_t scalarBits(const Line &line);

    /** compressedBits() rounded up to whole bytes. */
    std::uint32_t compressedSizeBytes(const Line &line) const override;

    /** Word-level patterns, in prefix order. */
    enum Pattern : std::uint8_t
    {
        ZeroRun = 0,      ///< 1-8 consecutive all-zero words.
        Sign4 = 1,        ///< Word fits in 4 sign-extended bits.
        Sign8 = 2,        ///< Word fits in 8 sign-extended bits.
        Sign16 = 3,       ///< Word fits in 16 sign-extended bits.
        HalfZeroPad = 4,  ///< Low halfword is zero; store high half.
        TwoSignedBytes = 5, ///< Each halfword fits in 8 signed bits.
        RepeatedByte = 6, ///< Four identical bytes; store one.
        Uncompressed = 7, ///< Verbatim 32 bits.
    };

  private:
    static constexpr std::uint32_t kWords = kLineSize / 4;
};

} // namespace dice

#endif // DICE_COMPRESS_FPC_HPP
