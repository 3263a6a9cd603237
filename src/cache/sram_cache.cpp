#include "sram_cache.hpp"

#include <bit>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace dice
{

SramCache::SramCache(const SramCacheConfig &config)
    : config_(config), ways_(config.ways)
{
    dice_assert(config.ways > 0 && config.ways <= 64,
                "cache %s: %u ways outside [1, 64]", config.name.c_str(),
                config.ways);
    const std::uint64_t lines = config.size_bytes / kLineSize;
    dice_assert(lines % config.ways == 0,
                "cache %s: %llu lines not divisible by %u ways",
                config.name.c_str(),
                static_cast<unsigned long long>(lines), config.ways);
    num_sets_ = static_cast<std::uint32_t>(lines / config.ways);
    dice_assert(isPowerOfTwo(num_sets_), "cache %s: %u sets not 2^k",
                config.name.c_str(), num_sets_);
    set_bits_ = floorLog2(num_sets_);
    const std::size_t slots = static_cast<std::size_t>(num_sets_) * ways_;
    tags_.resize(slots);
    lru_.resize(slots);
    payloads_.resize(slots);
    masks_.resize(num_sets_);
}

std::uint32_t
SramCache::findWay(std::uint32_t set, LineAddr line) const
{
    const std::uint64_t tag = tagOf(line);
    const std::uint64_t *tags = &tags_[std::size_t{set} * ways_];
    const std::uint64_t valid = masks_[set].valid;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == tag && ((valid >> w) & 1) != 0)
            return w;
    }
    return ways_;
}

bool
SramCache::access(LineAddr line, AccessType type, std::uint64_t payload)
{
    const std::uint32_t set = setOf(line);
    const std::uint32_t w = findWay(set, line);
    if (w == ways_) {
        ++misses_;
        return false;
    }
    ++hits_;
    const std::size_t slot = std::size_t{set} * ways_ + w;
    lru_[slot] = ++lru_clock_;
    if (type == AccessType::Write || type == AccessType::Writeback) {
        masks_[set].dirty |= std::uint64_t{1} << w;
        payloads_[slot] = payload;
    }
    return true;
}

std::optional<EvictedLine>
SramCache::install(LineAddr line, bool dirty, std::uint64_t payload)
{
    ++installs_;

    const std::uint32_t set = setOf(line);
    const std::size_t base = std::size_t{set} * ways_;
    SetMasks &m = masks_[set];
    std::uint32_t w = findWay(set, line);
    if (w != ways_) {
        // Refill of a resident line (e.g. upgrade): refresh in place.
        lru_[base + w] = ++lru_clock_;
        if (dirty)
            m.dirty |= std::uint64_t{1} << w;
        payloads_[base + w] = payload;
        return std::nullopt;
    }

    // Victim: the first invalid way, else the first way with the least
    // LRU stamp. Valid bits sit only below ways_, so the set is full
    // exactly when its first clear bit is at ways_ or above.
    std::optional<EvictedLine> evicted;
    w = static_cast<std::uint32_t>(std::countr_one(m.valid));
    if (w >= ways_) {
        w = 0;
        for (std::uint32_t v = 1; v < ways_; ++v) {
            if (lru_[base + v] < lru_[base + w])
                w = v;
        }
        const bool victim_dirty = ((m.dirty >> w) & 1) != 0;
        ++evictions_;
        if (victim_dirty)
            ++dirty_evictions_;
        evicted = EvictedLine{(tags_[base + w] << set_bits_) | set,
                              victim_dirty, payloads_[base + w]};
    }

    const std::uint64_t bit = std::uint64_t{1} << w;
    tags_[base + w] = tagOf(line);
    payloads_[base + w] = payload;
    lru_[base + w] = ++lru_clock_;
    m.valid |= bit;
    m.dirty = dirty ? (m.dirty | bit) : (m.dirty & ~bit);
    return evicted;
}

bool
SramCache::contains(LineAddr line) const
{
    const std::uint32_t set = setOf(line);
    return findWay(set, line) != ways_;
}

std::optional<std::uint64_t>
SramCache::payloadOf(LineAddr line) const
{
    const std::uint32_t set = setOf(line);
    const std::uint32_t w = findWay(set, line);
    if (w == ways_)
        return std::nullopt;
    return payloads_[std::size_t{set} * ways_ + w];
}

std::optional<EvictedLine>
SramCache::invalidate(LineAddr line)
{
    const std::uint32_t set = setOf(line);
    const std::uint32_t w = findWay(set, line);
    if (w == ways_)
        return std::nullopt;
    SetMasks &m = masks_[set];
    const std::uint64_t bit = std::uint64_t{1} << w;
    std::optional<EvictedLine> out;
    if (m.dirty & bit)
        out = EvictedLine{line, true, payloads_[std::size_t{set} * ways_ + w]};
    m.valid &= ~bit;
    m.dirty &= ~bit;
    return out;
}

double
SramCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

std::uint64_t
SramCache::validLines() const
{
    std::uint64_t n = 0;
    for (const SetMasks &m : masks_)
        n += static_cast<std::uint64_t>(std::popcount(m.valid));
    return n;
}

void
SramCache::resetStats()
{
    hits_ = misses_ = evictions_ = dirty_evictions_ = installs_ = 0;
}

StatGroup
SramCache::stats() const
{
    StatGroup g(config_.name);
    g.addFormula("hits", [this]() { return double(hits_); });
    g.addFormula("misses", [this]() { return double(misses_); });
    g.addFormula("hit_rate", [this]() { return hitRate(); });
    g.addFormula("evictions", [this]() { return double(evictions_); });
    g.addFormula("dirty_evictions",
                 [this]() { return double(dirty_evictions_); });
    g.addFormula("installs", [this]() { return double(installs_); });
    return g;
}

} // namespace dice
