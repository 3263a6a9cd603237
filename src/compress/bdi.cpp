#include "bdi.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "compress/bitstream.hpp"

namespace dice
{

namespace
{

/** Load the little-endian @p k-byte element @p idx of the line. */
std::uint64_t
loadElem(const Line &line, std::uint32_t k, std::uint32_t idx)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line.data() + k * idx, k);
    return v;
}

void
storeElem(Line &line, std::uint32_t k, std::uint32_t idx, std::uint64_t v)
{
    std::memcpy(line.data() + k * idx, &v, k);
}

/**
 * a - b and a + b in wrapping int64 arithmetic, the codec's delta
 * arithmetic (and deltasFit()'s): 8-byte elements may lie farther
 * apart than int64 can express.
 */
std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

} // namespace

std::uint32_t
BdiCodec::baseBytes(Mode mode)
{
    switch (mode) {
      case Zeros:
        return 0;
      case Rep8:
      case B8D1:
      case B8D2:
      case B8D4:
        return 8;
      case B4D1:
      case B4D2:
        return 4;
      case B2D1:
        return 2;
      default:
        dice_panic("bad BDI mode %u", mode);
    }
}

std::uint32_t
BdiCodec::deltaBytes(Mode mode)
{
    switch (mode) {
      case Zeros:
      case Rep8:
        return 0;
      case B8D1:
      case B4D1:
      case B2D1:
        return 1;
      case B8D2:
      case B4D2:
        return 2;
      case B8D4:
        return 4;
      default:
        dice_panic("bad BDI mode %u", mode);
    }
}

std::uint32_t
BdiCodec::payloadBits(Mode mode)
{
    if (mode == Zeros)
        return 0;
    if (mode == Rep8)
        return 64;
    const std::uint32_t base = baseBytes(mode);
    const std::uint32_t delta = deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / base;
    // Base + per-element deltas. The per-element immediate-mask bits
    // travel in the tag's metadata (Encoded::meta), matching the
    // paper's canonical BDI sizes (e.g. Base4-Delta2 = 36 B).
    return 8 * base + n_elem * 8 * delta;
}

std::optional<Encoded>
BdiCodec::compressInMode(const Line &line, Mode mode) const
{
    if (mode == Zeros) {
        for (std::uint8_t b : line) {
            if (b != 0)
                return std::nullopt;
        }
        Encoded enc;
        enc.algo = CompAlgo::Bdi;
        enc.mode = Zeros;
        enc.bits = 0;
        return enc;
    }

    if (mode == Rep8) {
        const std::uint64_t v = loadElem(line, 8, 0);
        for (std::uint32_t i = 1; i < kLineSize / 8; ++i) {
            if (loadElem(line, 8, i) != v)
                return std::nullopt;
        }
        BitWriter bw;
        bw.write(v, 64);
        Encoded enc;
        enc.algo = CompAlgo::Bdi;
        enc.mode = Rep8;
        enc.payload = bw.bytes();
        enc.bits = bw.bitSize();
        return enc;
    }

    const std::uint32_t k = baseBytes(mode);
    const std::uint32_t d = deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;
    const std::uint32_t delta_bits = 8 * d;

    // Pass 1: pick the explicit base (first element that is not a small
    // immediate) and verify every element is representable.
    std::uint64_t base = 0;
    bool base_set = false;
    std::uint64_t mask = 0; // bit i set => element i uses the zero base
    std::array<std::int64_t, kLineSize / 2> deltas{}; // n_elem <= 32

    for (std::uint32_t i = 0; i < n_elem; ++i) {
        const std::uint64_t raw = loadElem(line, k, i);
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
        const std::int64_t delta = wrapSub(val, signExtend(base, 8 * k));
        if (!fitsSigned(delta, delta_bits))
            return std::nullopt;
        deltas[i] = delta;
    }

    BitWriter bw;
    bw.write(base, 8 * k);
    for (std::uint32_t i = 0; i < n_elem; ++i)
        bw.write(static_cast<std::uint64_t>(deltas[i]), delta_bits);

    dice_assert(bw.bitSize() == payloadBits(mode),
                "BDI size mismatch: %u vs %u", bw.bitSize(),
                payloadBits(mode));

    Encoded enc;
    enc.algo = CompAlgo::Bdi;
    enc.mode = mode;
    enc.meta = mask;
    enc.payload = bw.bytes();
    enc.bits = bw.bitSize();
    return enc;
}

bool
BdiCodec::representable(const Line &line, Mode mode) const
{
    if (mode == Zeros) {
        for (std::uint8_t b : line) {
            if (b != 0)
                return false;
        }
        return true;
    }
    if (mode == Rep8) {
        const std::uint64_t v = loadElem(line, 8, 0);
        for (std::uint32_t i = 1; i < kLineSize / 8; ++i) {
            if (loadElem(line, 8, i) != v)
                return false;
        }
        return true;
    }

    const std::uint32_t k = baseBytes(mode);
    const std::uint32_t d = deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;
    const std::uint32_t delta_bits = 8 * d;

    std::int64_t base_val = 0;
    bool base_set = false;
    for (std::uint32_t i = 0; i < n_elem; ++i) {
        const std::int64_t val = signExtend(loadElem(line, k, i), 8 * k);
        if (fitsSigned(val, delta_bits))
            continue;
        if (!base_set) {
            base_val = val;
            base_set = true;
        }
        if (!fitsSigned(wrapSub(val, base_val), delta_bits))
            return false;
    }
    return true;
}

bool
BdiCodec::deltasFit(const std::int64_t *elems, std::uint32_t n_elem,
                    std::uint32_t delta_bits)
{
    // fitsSigned(x, delta_bits), with its bound hoisted out of the loop.
    const std::int64_t lim = std::int64_t{1} << (delta_bits - 1);
    std::int64_t base_val = 0;
    bool base_set = false;
    for (std::uint32_t i = 0; i < n_elem; ++i) {
        const std::int64_t val = elems[i];
        if (val >= -lim && val < lim)
            continue;
        if (!base_set) {
            base_val = val;
            base_set = true;
        }
        const std::int64_t delta = wrapSub(val, base_val);
        if (delta < -lim || delta >= lim)
            return false;
    }
    return true;
}

std::uint32_t
BdiCodec::compressedBits(const Line &line) const
{
    // Size-only hot path. Modes are tried in the same
    // smallest-encoding-first order as compress() (Zeros, Rep8, B8D1,
    // B4D1, B8D2, B2D1, B4D2, B8D4), but the line is loaded once and
    // the sign-extended element arrays are shared across the modes
    // with the same base size instead of re-read per mode.
    std::uint64_t w[kLineSize / 8];
    std::memcpy(w, line.data(), sizeof(w));

    std::uint64_t any = 0;
    for (std::uint64_t v : w)
        any |= v;
    if (any == 0)
        return payloadBits(Zeros);

    bool repeated = true;
    for (std::uint32_t i = 1; i < kLineSize / 8; ++i) {
        if (w[i] != w[0]) {
            repeated = false;
            break;
        }
    }
    if (repeated)
        return payloadBits(Rep8);

    // The per-mode delta-width checks apply deltasFit(), the rule
    // representable() applies, to the shared element arrays.
    std::int64_t e8[kLineSize / 8];
    for (std::uint32_t i = 0; i < kLineSize / 8; ++i)
        e8[i] = static_cast<std::int64_t>(w[i]);
    if (deltasFit(e8, kLineSize / 8, 8))
        return payloadBits(B8D1);

    std::int64_t e4[kLineSize / 4];
    for (std::uint32_t i = 0; i < kLineSize / 4; ++i) {
        std::uint32_t v;
        std::memcpy(&v, line.data() + 4 * i, 4);
        e4[i] = static_cast<std::int32_t>(v);
    }
    if (deltasFit(e4, kLineSize / 4, 8))
        return payloadBits(B4D1);
    if (deltasFit(e8, kLineSize / 8, 16))
        return payloadBits(B8D2);

    std::int64_t e2[kLineSize / 2];
    for (std::uint32_t i = 0; i < kLineSize / 2; ++i) {
        std::uint16_t v;
        std::memcpy(&v, line.data() + 2 * i, 2);
        e2[i] = static_cast<std::int16_t>(v);
    }
    if (deltasFit(e2, kLineSize / 2, 8))
        return payloadBits(B2D1);
    if (deltasFit(e4, kLineSize / 4, 16))
        return payloadBits(B4D2);
    if (deltasFit(e8, kLineSize / 8, 32))
        return payloadBits(B8D4);
    return 8 * kLineSize;
}

std::uint32_t
BdiCodec::compressedSizeBytes(const Line &line) const
{
    return (compressedBits(line) + 7) / 8;
}

Encoded
BdiCodec::compress(const Line &line) const
{
    // Try modes from smallest encoded size to largest (16, 20, 24,
    // 34, 36, 40 bytes).
    static constexpr Mode kOrder[] = {Zeros, Rep8, B8D1, B4D1,
                                      B8D2,  B2D1, B4D2, B8D4};
    for (Mode mode : kOrder) {
        if (payloadBits(mode) >= 8 * kLineSize)
            continue;
        if (auto enc = compressInMode(line, mode))
            return *enc;
    }
    return encodeRaw(line);
}

Line
BdiCodec::decompress(const Encoded &enc) const
{
    if (enc.algo == CompAlgo::None)
        return decodeRaw(enc);
    dice_assert(enc.algo == CompAlgo::Bdi, "BDI decompress of wrong algo");

    const auto mode = static_cast<Mode>(enc.mode);
    Line line{};

    if (mode == Zeros)
        return line;

    BitReader br(enc.payload);

    if (mode == Rep8) {
        const std::uint64_t v = br.read(64);
        for (std::uint32_t i = 0; i < kLineSize / 8; ++i)
            storeElem(line, 8, i, v);
        return line;
    }

    const std::uint32_t k = baseBytes(mode);
    const std::uint32_t d = deltaBytes(mode);
    const std::uint32_t n_elem = kLineSize / k;

    const std::uint64_t base = br.read(8 * k);
    const std::int64_t base_val = signExtend(base, 8 * k);
    const std::uint64_t mask = enc.meta;

    for (std::uint32_t i = 0; i < n_elem; ++i) {
        const std::int64_t delta = signExtend(br.read(8 * d), 8 * d);
        const bool immediate = (mask >> i) & 1;
        const std::int64_t val =
            immediate ? delta : wrapAdd(base_val, delta);
        storeElem(line, k, i, static_cast<std::uint64_t>(val));
    }
    return line;
}

} // namespace dice
