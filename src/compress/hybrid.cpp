#include "hybrid.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "compress/bitstream.hpp"

namespace dice
{

Encoded
HybridCodec::compress(const Line &line) const
{
    Encoded best = zca_.compress(line);
    if (best.algo == CompAlgo::Zca)
        return best; // Cannot be beaten (0 bits).

    const Encoded b = bdi_.compress(line);
    const Encoded f = fpc_.compress(line);

    best = encodeRaw(line);
    // Prefer BDI on ties: its 1-cycle decompression is cheaper, and tag
    // metadata is smaller.
    if (f.algo != CompAlgo::None && f.bits < best.bits)
        best = f;
    if (b.algo != CompAlgo::None && b.bits <= best.bits)
        best = b;
    return best;
}

Line
HybridCodec::decompress(const Encoded &enc) const
{
    switch (enc.algo) {
      case CompAlgo::None:
        return decodeRaw(enc);
      case CompAlgo::Zca:
        return zca_.decompress(enc);
      case CompAlgo::Fpc:
        return fpc_.decompress(enc);
      case CompAlgo::Bdi:
        return bdi_.decompress(enc);
      default:
        dice_panic("bad compression algo %u",
                   static_cast<unsigned>(enc.algo));
    }
}

std::uint32_t
HybridCodec::compressedSizeBytes(const Line &line) const
{
    std::uint64_t words[kLineSize / 8];
    std::memcpy(words, line.data(), sizeof(words));
    std::uint64_t any = 0;
    for (std::uint64_t w : words)
        any |= w;
    if (any == 0)
        return 0;

    const std::uint32_t best_bits =
        std::min(bdi_.compressedBits(line), fpc_.compressedBits(line));
    return (best_bits + 7) / 8;
}

namespace
{

std::uint64_t
loadElem(const Line &line, std::uint32_t k, std::uint32_t idx)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line.data() + k * idx, k);
    return v;
}

/** Sign-extended k-byte elements of @p a then @p b. */
void
extractPairElems(const Line &a, const Line &b, std::uint32_t k,
                 std::int64_t *out)
{
    const std::uint32_t n = kLineSize / k;
    for (std::uint32_t i = 0; i < n; ++i)
        out[i] = signExtend(loadElem(a, k, i), 8 * k);
    for (std::uint32_t i = 0; i < n; ++i)
        out[n + i] = signExtend(loadElem(b, k, i), 8 * k);
}

/** Joint payload bits of a shared-base pair encoding. */
std::uint32_t
pairPayloadBits(BdiCodec::Mode mode)
{
    const std::uint32_t k = BdiCodec::baseBytes(mode);
    const std::uint32_t d = BdiCodec::deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;
    return 8 * k + 2 * n_elem * 8 * d;
}

} // namespace

std::uint32_t
HybridCodec::pairSizeBytes(const Line &a, const Line &b) const
{
    return pairSizeBytes(a, b, compressedSizeBytes(a),
                         compressedSizeBytes(b));
}

std::uint32_t
HybridCodec::pairSizeBytes(const Line &a, const Line &b,
                           std::uint32_t a_bytes,
                           std::uint32_t b_bytes) const
{
    std::uint32_t best_bits = 8 * (a_bytes + b_bytes);
    // Same mode set and min rule as compressPair(), with the pair's
    // elements extracted once per base size and shared across modes.
    static constexpr BdiCodec::Mode kDeltaModes[] = {
        BdiCodec::B8D1, BdiCodec::B4D1, BdiCodec::B8D2,
        BdiCodec::B4D2, BdiCodec::B2D1, BdiCodec::B8D4,
    };
    std::int64_t e8[2 * kLineSize / 8];
    std::int64_t e4[2 * kLineSize / 4];
    std::int64_t e2[2 * kLineSize / 2];
    bool have8 = false, have4 = false, have2 = false;
    for (auto mode : kDeltaModes) {
        const std::uint32_t bits = pairPayloadBits(mode);
        if (bits >= best_bits)
            continue;
        const std::uint32_t k = BdiCodec::baseBytes(mode);
        const std::int64_t *elems;
        if (k == 8) {
            if (!have8)
                extractPairElems(a, b, 8, e8);
            have8 = true;
            elems = e8;
        } else if (k == 4) {
            if (!have4)
                extractPairElems(a, b, 4, e4);
            have4 = true;
            elems = e4;
        } else {
            if (!have2)
                extractPairElems(a, b, 2, e2);
            have2 = true;
            elems = e2;
        }
        // Same representability rule sharedBaseEncode() applies,
        // size-only.
        if (BdiCodec::deltasFit(elems, 2 * kLineSize / k,
                                8 * BdiCodec::deltaBytes(mode)))
            best_bits = bits;
    }
    return (best_bits + 7) / 8;
}

namespace
{

void
storeElem(Line &line, std::uint32_t k, std::uint32_t idx, std::uint64_t v)
{
    std::memcpy(line.data() + k * idx, &v, k);
}

} // namespace

std::optional<EncodedPair>
HybridCodec::sharedBaseEncode(const Line &a, const Line &b,
                              BdiCodec::Mode mode) const
{
    if (mode == BdiCodec::Zeros || mode == BdiCodec::Rep8)
        return std::nullopt; // Pair sharing only applies to delta modes.

    const std::uint32_t k = BdiCodec::baseBytes(mode);
    const std::uint32_t d = BdiCodec::deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;
    const std::uint32_t delta_bits = 8 * d;

    std::uint64_t base = 0;
    bool base_set = false;
    std::uint64_t mask = 0; // 2*n_elem mask bits across both lines
    std::array<std::int64_t, kLineSize> deltas{}; // 2*n_elem <= 64

    for (std::uint32_t i = 0; i < 2 * n_elem; ++i) {
        const Line &src = i < n_elem ? a : b;
        const std::uint32_t idx = i < n_elem ? i : i - n_elem;
        const std::uint64_t raw = loadElem(src, k, idx);
        const std::int64_t val = signExtend(raw, 8 * k);
        if (fitsSigned(val, delta_bits)) {
            mask |= std::uint64_t{1} << i;
            deltas[i] = val;
            continue;
        }
        if (!base_set) {
            base = raw;
            base_set = true;
        }
        // Wrapping, like BDI's delta arithmetic: 8-byte elements may
        // lie farther apart than int64 can express.
        const auto delta = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(val) -
            static_cast<std::uint64_t>(signExtend(base, 8 * k)));
        if (!fitsSigned(delta, delta_bits))
            return std::nullopt;
        deltas[i] = delta;
    }

    BitWriter bw;
    bw.write(base, 8 * k);
    for (std::uint32_t i = 0; i < 2 * n_elem; ++i)
        bw.write(static_cast<std::uint64_t>(deltas[i]), delta_bits);

    EncodedPair enc;
    enc.scheme = PairScheme::SharedBdiBase;
    enc.mode = mode;
    enc.meta = mask;
    enc.joint = bw.bytes();
    enc.bits = bw.bitSize();
    return enc;
}

EncodedPair
HybridCodec::compressPair(const Line &a, const Line &b) const
{
    EncodedPair best;
    best.scheme = PairScheme::Independent;
    best.first = compress(a);
    best.second = compress(b);
    // Independently-encoded lines are stored byte-aligned.
    best.bits = 8 * (best.first.sizeBytes() + best.second.sizeBytes());

    static constexpr BdiCodec::Mode kDeltaModes[] = {
        BdiCodec::B8D1, BdiCodec::B4D1, BdiCodec::B8D2,
        BdiCodec::B4D2, BdiCodec::B2D1, BdiCodec::B8D4,
    };
    for (auto mode : kDeltaModes) {
        if (auto shared = sharedBaseEncode(a, b, mode)) {
            if (shared->bits < best.bits)
                best = std::move(*shared);
        }
    }
    return best;
}

std::pair<Line, Line>
HybridCodec::decompressPair(const EncodedPair &enc) const
{
    if (enc.scheme == PairScheme::Independent)
        return {decompress(enc.first), decompress(enc.second)};

    const auto mode = static_cast<BdiCodec::Mode>(enc.mode);
    const std::uint32_t k = BdiCodec::baseBytes(mode);
    const std::uint32_t d = BdiCodec::deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;

    BitReader br(enc.joint);
    const std::uint64_t base = br.read(8 * k);
    const std::int64_t base_val = signExtend(base, 8 * k);
    const std::uint64_t mask = enc.meta;

    Line a{}, b{};
    for (std::uint32_t i = 0; i < 2 * n_elem; ++i) {
        const std::int64_t delta = signExtend(br.read(8 * d), 8 * d);
        const bool immediate = (mask >> i) & 1;
        const std::uint64_t val =
            immediate ? static_cast<std::uint64_t>(delta)
                      : static_cast<std::uint64_t>(base_val) +
                            static_cast<std::uint64_t>(delta);
        Line &dst = i < n_elem ? a : b;
        const std::uint32_t idx = i < n_elem ? i : i - n_elem;
        storeElem(dst, k, idx, val);
    }
    return {a, b};
}

} // namespace dice
