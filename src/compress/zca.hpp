/**
 * @file
 * Zero-Content Augmented (ZCA) "codec": detects all-zero lines, which
 * need no data payload at all (a tag bit is enough).
 */

#ifndef DICE_COMPRESS_ZCA_HPP
#define DICE_COMPRESS_ZCA_HPP

#include "compress/compressor.hpp"

namespace dice
{

/** Trivial codec that compresses only all-zero lines (to zero bits). */
class ZcaCodec : public Codec
{
  public:
    const char *name() const override { return "ZCA"; }

    Encoded compress(const Line &line) const override;
    Line decompress(const Encoded &enc) const override;

    /** 0 for an all-zero line, kLineSize otherwise. */
    std::uint32_t compressedSizeBytes(const Line &line) const override;
};

} // namespace dice

#endif // DICE_COMPRESS_ZCA_HPP
