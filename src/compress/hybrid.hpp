/**
 * @file
 * The FPC+BDI hybrid used by DICE (Section 4.2 of the paper): both
 * codecs run and the smaller encoding wins. Also implements pair
 * compression of two spatially-adjacent lines with a shared BDI base
 * (and shared tag, accounted for by the TAD layout), which is what lets
 * a pair fit in a 72-B TAD ("Double <= 68B" in Figure 4).
 */

#ifndef DICE_COMPRESS_HYBRID_HPP
#define DICE_COMPRESS_HYBRID_HPP

#include "compress/bdi.hpp"
#include "compress/fpc.hpp"
#include "compress/zca.hpp"

namespace dice
{

/** How a compressed pair of adjacent lines was encoded. */
enum class PairScheme : std::uint8_t
{
    Independent,   ///< Each line carries its own best encoding.
    SharedBdiBase, ///< One BDI base shared by both lines' elements.
};

/** Result of compressing two adjacent lines together. */
struct EncodedPair
{
    PairScheme scheme = PairScheme::Independent;
    /** BDI mode when scheme == SharedBdiBase. */
    std::uint8_t mode = 0;
    /** Shared immediate mask (tag metadata; see Encoded::meta). */
    std::uint64_t meta = 0;
    /** Exact total payload bits for both lines. */
    std::uint32_t bits = 0;
    /** Per-line encodings (Independent) or the joint stream (shared). */
    Encoded first;
    Encoded second;
    PayloadBuf joint;

    std::uint32_t sizeBytes() const { return (bits + 7) / 8; }
};

/**
 * Hybrid ZCA/FPC/BDI codec. This is the compressor instantiated in the
 * L4 cache controller.
 */
class HybridCodec : public Codec
{
  public:
    const char *name() const override { return "FPC+BDI"; }

    /** Best of ZCA, FPC, and BDI (ties break toward BDI, then FPC). */
    Encoded compress(const Line &line) const override;

    /** Dispatch on the encoding's algorithm tag. */
    Line decompress(const Encoded &enc) const override;

    /**
     * Compressed payload size of @p line in bytes, via the
     * allocation-free size-only codec paths (hot path of the cache
     * model; equals compress(line).sizeBytes()).
     */
    std::uint32_t compressedSizeBytes(const Line &line) const override;

    /**
     * Joint payload size of the pair (a, b) in bytes, again without
     * materializing a bitstream; equals compressPair(...).sizeBytes().
     */
    std::uint32_t pairSizeBytes(const Line &a, const Line &b) const;

    /**
     * Same, with the lines' independent compressed sizes supplied by
     * a caller that already knows them (e.g. from the resident item's
     * size) — the joint pass then only evaluates the shared-base pair
     * modes instead of re-running both single-line codecs.
     */
    std::uint32_t pairSizeBytes(const Line &a, const Line &b,
                                std::uint32_t a_bytes,
                                std::uint32_t b_bytes) const;

    /**
     * Compress adjacent lines @p a and @p b together, sharing one BDI
     * base when that beats independent encodings.
     */
    EncodedPair compressPair(const Line &a, const Line &b) const;

    /** Invert compressPair(). */
    std::pair<Line, Line> decompressPair(const EncodedPair &enc) const;

    const ZcaCodec &zca() const { return zca_; }
    const FpcCodec &fpc() const { return fpc_; }
    const BdiCodec &bdi() const { return bdi_; }

  private:
    /**
     * Try to encode both lines in one BDI mode with a single shared
     * base; nullopt when some element of either line does not fit.
     */
    std::optional<EncodedPair> sharedBaseEncode(const Line &a,
                                                const Line &b,
                                                BdiCodec::Mode mode) const;

    ZcaCodec zca_;
    FpcCodec fpc_;
    BdiCodec bdi_;
};

} // namespace dice

#endif // DICE_COMPRESS_HYBRID_HPP
