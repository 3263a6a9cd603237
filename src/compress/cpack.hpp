/**
 * @file
 * C-PACK: Cache Packer compression (Chen et al., TVLSI 2010), the
 * dictionary-based alternative the DICE paper lists among applicable
 * codecs (Section 7.1). DICE itself is codec-agnostic; this
 * implementation demonstrates that claim and lets users swap it in.
 *
 * The line is processed as 32-bit words against a small FIFO
 * dictionary. Each word emits one of six patterns:
 *
 *   zzzz (00)       : all-zero word                      -> 2 bits
 *   xxxx (01)+B     : no match, verbatim word            -> 34 bits
 *   mmmm (10)+idx   : full dictionary match              -> 6 bits
 *   mmxx (1100)+... : high-half match, low half verbatim -> 24 bits
 *   zzzx (1101)+B   : three zero bytes, low byte literal -> 12 bits
 *   mmmx (1110)+... : 3-byte match, low byte verbatim    -> 16 bits
 *
 * Unmatched words (xxxx / mmxx) are pushed into the dictionary.
 */

#ifndef DICE_COMPRESS_CPACK_HPP
#define DICE_COMPRESS_CPACK_HPP

#include "compress/compressor.hpp"

namespace dice
{

/** C-PACK codec over 64-B lines with a 16-entry FIFO dictionary. */
class CpackCodec : public Codec
{
  public:
    const char *name() const override { return "C-PACK"; }

    Encoded compress(const Line &line) const override;
    Line decompress(const Encoded &enc) const override;

    /** Size-only fast path (no bitstream materialized). */
    std::uint32_t compressedBits(const Line &line) const;

    /** compressedBits() rounded up to whole bytes. */
    std::uint32_t compressedSizeBytes(const Line &line) const override;

    /** Dictionary entries (4 bits of index per full/partial match). */
    static constexpr std::uint32_t kDictEntries = 16;

  private:
    enum Pattern : std::uint8_t
    {
        Zzzz = 0, ///< 2-bit code 0b00
        Xxxx = 1, ///< 2-bit code 0b01 + 32-bit literal
        Mmmm = 2, ///< 2-bit code 0b10 + 4-bit index
        Mmxx = 3, ///< 4-bit code 0b1100 + index + 16-bit literal
        Zzzx = 4, ///< 4-bit code 0b1101 + 8-bit literal
        Mmmx = 5, ///< 4-bit code 0b1110 + index + 8-bit literal
    };
};

} // namespace dice

#endif // DICE_COMPRESS_CPACK_HPP
