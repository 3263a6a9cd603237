#include "tad.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

TadSet::TadSet(const TadSet &other)
    : n_(other.n_), cap_(other.cap_), line_count_(other.line_count_),
      max_lines_(other.max_lines_), tag_bytes_(other.tag_bytes_),
      bytes_used_(other.bytes_used_), budget_bytes_(other.budget_bytes_)
{
    static_assert(sizeof(inline_) ==
                  blockWords(kInlineItems) * sizeof(std::uint64_t));
    std::memcpy(inline_, other.inline_, sizeof(inline_));
    if (other.block_) {
        block_ = std::make_unique<std::uint64_t[]>(blockWords(cap_));
        std::memcpy(block_.get(), other.block_.get(),
                    blockWords(cap_) * sizeof(std::uint64_t));
    }
}

TadSet &
TadSet::operator=(const TadSet &other)
{
    if (this != &other) {
        TadSet copy(other);
        *this = std::move(copy);
    }
    return *this;
}

void
TadSet::grow()
{
    const std::uint32_t limit = capacity();
    std::uint32_t next =
        cap_ == kInlineItems ? kFirstSpillItems : 2u * cap_;
    if (next > limit)
        next = limit;

    // Point the plane accessors at a wider block, keeping the old
    // planes (inline, or in the block held by `old`) to copy each live
    // prefix from.
    const std::uint64_t *from_keys = keys();
    const std::uint64_t *from_lru = lru();
    const PayloadPair *from_payloads = payloads();
    const std::uint16_t *from_data_bytes = dataBytes();
    const std::uint8_t *from_flags = flags();
    const std::unique_ptr<std::uint64_t[]> old = std::move(block_);
    block_ = std::make_unique<std::uint64_t[]>(blockWords(next));
    cap_ = static_cast<std::uint8_t>(next);

    const std::uint32_t n = n_;
    std::memcpy(keys(), from_keys, n * sizeof(std::uint64_t));
    std::memcpy(lru(), from_lru, n * sizeof(std::uint64_t));
    std::memcpy(payloads(), from_payloads, n * sizeof(PayloadPair));
    std::memcpy(dataBytes(), from_data_bytes, n * sizeof(std::uint16_t));
    std::memcpy(flags(), from_flags, n);
}

void
TadSet::eraseAt(std::uint32_t i)
{
    const std::uint32_t tail = n_ - i - 1;
    if (tail != 0) {
        std::memmove(keys() + i, keys() + i + 1,
                     tail * sizeof(std::uint64_t));
        std::memmove(lru() + i, lru() + i + 1,
                     tail * sizeof(std::uint64_t));
        std::memmove(payloads() + i, payloads() + i + 1,
                     tail * sizeof(PayloadPair));
        std::memmove(dataBytes() + i, dataBytes() + i + 1,
                     tail * sizeof(std::uint16_t));
        std::memmove(flags() + i, flags() + i + 1, tail);
    }
    --n_;
}

std::optional<EvictedLine>
TadSet::remove(LineAddr line, std::uint32_t remaining_bytes)
{
    const std::uint32_t i = findIndex(line);
    if (i == n_)
        return std::nullopt;
    return removeAt(i, line, remaining_bytes);
}

std::optional<EvictedLine>
TadSet::removeAt(std::uint32_t i, LineAddr line,
                 std::uint32_t remaining_bytes)
{
    dice_assert(i < n_ && holdsAt(i, line), "removeAt of absent line");

    std::optional<EvictedLine> out;
    const std::uint8_t f = flags()[i];
    if (!(f & kPair)) {
        if (f & kDirty0)
            out = EvictedLine{baseOf(i), true, payloads()[i].p[0]};
        bytes_used_ -= tag_bytes_ + dataBytes()[i];
        --line_count_;
        eraseAt(i);
        return out;
    }

    const auto slot = static_cast<std::uint32_t>(line & 1);
    if (f & dirtyBit(slot))
        out = EvictedLine{line, true, payloads()[i].p[slot]};
    flags()[i] &= static_cast<std::uint8_t>(
        ~(validBit(slot) | dirtyBit(slot)));
    --line_count_;

    const std::uint32_t other = slot ^ 1u;
    if (!(flags()[i] & validBit(other))) {
        bytes_used_ -= tag_bytes_ + dataBytes()[i];
        eraseAt(i);
        return out;
    }
    // The pair's payload shrinks to the survivor's single-line size.
    bytes_used_ += remaining_bytes;
    bytes_used_ -= dataBytes()[i];
    // The survivor becomes a single-line item (same key, same LRU).
    const bool survivor_dirty = (flags()[i] & dirtyBit(other)) != 0;
    std::uint8_t nf = kValid0;
    if (survivor_dirty)
        nf |= kDirty0;
    if (flags()[i] & kBai)
        nf |= kBai;
    if (other != 0)
        nf |= kOdd;
    flags()[i] = nf;
    payloads()[i].p[0] = payloads()[i].p[other];
    payloads()[i].p[1] = 0;
    dataBytes()[i] = static_cast<std::uint16_t>(remaining_bytes);
    return out;
}

bool
TadSet::evictLru(LineAddr protect, WritebackList &writebacks)
{
    const std::uint32_t n = n_;

    // At most one item is unevictable: the one holding `protect`, or
    // the pair over `protect`'s key (which may only be skipped, never
    // split). Those share one key, and a pair excludes co-resident
    // singles of its key, so a single key scan finds the one skip.
    std::uint32_t skip = n;
    std::uint64_t m = simd::matchMaskU64(keys(), n, keyOf(protect));
    for (; m != 0; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(__builtin_ctzll(m));
        if ((flags()[i] & kPair) || holdsAt(i, protect)) {
            skip = i;
            break;
        }
    }

    const std::size_t victim = simd::minIndexU64(lru(), n, skip);
    if (victim == n)
        return false;

    const std::uint8_t f = flags()[victim];
    const LineAddr base = baseOf(static_cast<std::uint32_t>(victim));
    std::uint32_t valid_lines = 0;
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        if (!(f & validBit(slot)))
            continue;
        ++valid_lines;
        if (f & dirtyBit(slot)) {
            writebacks.push_back(EvictedLine{
                base | slot, true, payloads()[victim].p[slot]});
        }
    }
    bytes_used_ -= tag_bytes_ + dataBytes()[victim];
    line_count_ -= valid_lines;
    eraseAt(static_cast<std::uint32_t>(victim));
    return true;
}

void
TadSet::account(std::uint32_t data_bytes, std::uint32_t lines)
{
    // Checked at full width: a narrow counter would wrap past the
    // budget instead of exceeding it.
    const std::uint32_t bytes = bytes_used_ + tag_bytes_ + data_bytes;
    const std::uint32_t line_count = line_count_ + lines;
    dice_assert(bytes <= budget_bytes_, "set overfull: %u bytes", bytes);
    dice_assert(line_count <= max_lines_, "set overfull: %u lines",
                line_count);
    bytes_used_ = static_cast<std::uint16_t>(bytes);
    line_count_ = static_cast<std::uint8_t>(line_count);
}

void
TadSet::insertSingle(LineAddr line, std::uint32_t data_bytes, bool dirty,
                     std::uint64_t payload, bool bai,
                     std::uint64_t lru_stamp)
{
    // Uniqueness (no duplicate resident line) is the caller's contract;
    // auditStorage() checks it off the hot path.
    dice_assert(n_ < capacity(), "set overfull: %u items", n_ + 1u);
    if (n_ == cap_)
        grow();
    std::uint8_t f = kValid0;
    if (dirty)
        f |= kDirty0;
    if (bai)
        f |= kBai;
    if (line & 1)
        f |= kOdd;
    const std::uint32_t i = n_++;
    keys()[i] = keyOf(line);
    lru()[i] = lru_stamp;
    payloads()[i] = PayloadPair{{payload, 0}};
    dataBytes()[i] = static_cast<std::uint16_t>(data_bytes);
    flags()[i] = f;
    account(data_bytes, 1);
}

void
TadSet::insertPair(LineAddr base, std::uint32_t data_bytes, bool dirty0,
                   std::uint64_t payload0, bool dirty1,
                   std::uint64_t payload1, bool bai,
                   std::uint64_t lru_stamp)
{
    dice_assert((base & 1) == 0, "pair base must be even");
    // Uniqueness (no duplicate resident line) is the caller's contract;
    // auditStorage() checks it off the hot path.
    dice_assert(n_ < capacity(), "set overfull: %u items", n_ + 1u);
    if (n_ == cap_)
        grow();
    std::uint8_t f = kPair | kValid0 | kValid1;
    if (dirty0)
        f |= kDirty0;
    if (dirty1)
        f |= kDirty1;
    if (bai)
        f |= kBai;
    const std::uint32_t i = n_++;
    keys()[i] = keyOf(base);
    lru()[i] = lru_stamp;
    payloads()[i] = PayloadPair{{payload0, payload1}};
    dataBytes()[i] = static_cast<std::uint16_t>(data_bytes);
    flags()[i] = f;
    account(data_bytes, 2);
}

bool
TadSet::auditStorage() const
{
    if (n_ > cap_ || cap_ > capacity() ||
        (cap_ != kInlineItems && !block_))
        return false;

    const std::uint32_t payload_bytes = simd::sumU16(dataBytes(), n_);
    const std::uint32_t bytes = payload_bytes + tag_bytes_ * n_;
    std::uint32_t lines = 0;
    for (std::uint32_t i = 0; i < n_; ++i) {
        const std::uint8_t f = flags()[i];
        lines += popcount64(f & (kValid0 | kValid1));
        // Items must hold at least one valid line; singles keep theirs
        // in slot 0 and pairs keep an even base (kOdd clear).
        if (!(f & (kValid0 | kValid1)))
            return false;
        if (!(f & kPair) && ((f & kValid1) || !(f & kValid0)))
            return false;
        if ((f & kPair) && (f & kOdd))
            return false;
        // No line may be resident twice: items sharing a key must be
        // singles of opposite halves (a pair claims both halves).
        for (std::uint32_t j = 0; j < i; ++j) {
            if (keys()[j] != keys()[i])
                continue;
            const std::uint8_t g = flags()[j];
            if ((f & kPair) || (g & kPair))
                return false;
            if ((f & kOdd) == (g & kOdd))
                return false;
        }
    }
    return bytes == bytes_used_ && lines == line_count_ &&
           bytes_used_ <= budget_bytes_ && line_count_ <= max_lines_;
}

} // namespace dice
