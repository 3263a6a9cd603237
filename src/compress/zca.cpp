#include "zca.hpp"

#include <cstring>

#include "common/log.hpp"

namespace dice
{

namespace
{

/** True when every byte of @p line is zero. */
bool
allZero(const Line &line)
{
    std::uint64_t any = 0;
    for (std::uint32_t off = 0; off < kLineSize; off += 8) {
        std::uint64_t w;
        std::memcpy(&w, line.data() + off, 8);
        any |= w;
    }
    return any == 0;
}

} // namespace

Encoded
ZcaCodec::compress(const Line &line) const
{
    if (!allZero(line))
        return encodeRaw(line);

    Encoded enc;
    enc.algo = CompAlgo::Zca;
    enc.bits = 0;
    return enc;
}

std::uint32_t
ZcaCodec::compressedSizeBytes(const Line &line) const
{
    return allZero(line) ? 0 : kLineSize;
}

Line
ZcaCodec::decompress(const Encoded &enc) const
{
    if (enc.algo == CompAlgo::None)
        return decodeRaw(enc);
    dice_assert(enc.algo == CompAlgo::Zca, "ZCA decompress of wrong algo");
    return Line{};
}

} // namespace dice
