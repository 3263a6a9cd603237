/**
 * @file
 * RefSramCache: the array-of-ways SRAM cache the plane layout of
 * SramCache replaced (one 32-B record of tag, payload, LRU stamp and
 * valid/dirty flags per way), kept as the reference model its
 * differential test compares against.
 */

#ifndef DICE_TESTS_REF_SRAM_CACHE_HPP
#define DICE_TESTS_REF_SRAM_CACHE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/sram_cache.hpp"

namespace dice
{

/** Transparent reference implementation of SramCache's contract. */
class RefSramCache
{
  public:
    explicit RefSramCache(const SramCacheConfig &config)
        : ways_(config.ways),
          num_sets_(static_cast<std::uint32_t>(config.size_bytes /
                                               kLineSize / config.ways)),
          slots_(static_cast<std::size_t>(num_sets_) * ways_)
    {
        while ((std::uint64_t{1} << set_bits_) < num_sets_)
            ++set_bits_;
    }

    bool
    access(LineAddr line, AccessType type, std::uint64_t payload = 0)
    {
        Way *way = findWay(line);
        if (!way) {
            ++misses_;
            return false;
        }
        ++hits_;
        way->lru = ++lru_clock_;
        if (type == AccessType::Write || type == AccessType::Writeback) {
            way->dirty = true;
            way->payload = payload;
        }
        return true;
    }

    std::optional<EvictedLine>
    install(LineAddr line, bool dirty, std::uint64_t payload)
    {
        ++installs_;
        if (Way *way = findWay(line)) {
            way->lru = ++lru_clock_;
            way->dirty = way->dirty || dirty;
            way->payload = payload;
            return std::nullopt;
        }
        Way *set = setBase(line);
        Way *victim = &set[0];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lru < victim->lru)
                victim = &set[w];
        }
        std::optional<EvictedLine> evicted;
        if (victim->valid) {
            ++evictions_;
            if (victim->dirty)
                ++dirty_evictions_;
            evicted = EvictedLine{(victim->tag << set_bits_) | setOf(line),
                                  victim->dirty, victim->payload};
        }
        victim->tag = line >> set_bits_;
        victim->payload = payload;
        victim->lru = ++lru_clock_;
        victim->valid = true;
        victim->dirty = dirty;
        return evicted;
    }

    bool contains(LineAddr line) { return findWay(line) != nullptr; }

    std::optional<std::uint64_t>
    payloadOf(LineAddr line)
    {
        const Way *way = findWay(line);
        if (!way)
            return std::nullopt;
        return way->payload;
    }

    std::optional<EvictedLine>
    invalidate(LineAddr line)
    {
        Way *way = findWay(line);
        if (!way)
            return std::nullopt;
        way->valid = false;
        std::optional<EvictedLine> out;
        if (way->dirty)
            out = EvictedLine{line, true, way->payload};
        way->dirty = false;
        return out;
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Way &w : slots_)
            n += w.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t dirtyEvictions() const { return dirty_evictions_; }
    std::uint64_t installs() const { return installs_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t payload = 0;
        std::uint64_t lru = 0; // larger = more recently used
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t setOf(LineAddr line) const
    {
        return line & (num_sets_ - 1);
    }

    Way *
    setBase(LineAddr line)
    {
        return &slots_[static_cast<std::size_t>(setOf(line)) * ways_];
    }

    Way *
    findWay(LineAddr line)
    {
        Way *set = setBase(line);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == (line >> set_bits_))
                return &set[w];
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint32_t num_sets_;
    std::uint32_t set_bits_ = 0;
    std::vector<Way> slots_;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t dirty_evictions_ = 0;
    std::uint64_t installs_ = 0;
};

} // namespace dice

#endif // DICE_TESTS_REF_SRAM_CACHE_HPP
