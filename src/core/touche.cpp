#include "touche.hpp"

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace dice
{

ToucheCache::ToucheCache(const DramCacheConfig &config,
                         const ToucheL4Params &params,
                         const LineDataSource &source, std::string name)
    : DramCache(config, std::move(name)), params_(params),
      indexer_(floorLog2(config.capacity / kLineSize)),
      mapper_(config.timing), source_(source),
      sig_mask_((params.signature_bits >= 32
                     ? ~std::uint32_t{0}
                     : (std::uint32_t{1} << params.signature_bits) - 1)),
      sets_(config.capacity / kLineSize,
            TadSet(kTadSetBytes, kTadMaxLines,
                   /*tag_bytes=*/kSignatureTagBytes))
{
    dice_assert(isPowerOfTwo(config.capacity / kLineSize),
                "Touché cache needs a power-of-two set count");
    dice_assert(params.signature_bits > 0 && params.signature_bits <= 32,
                "signature width %u out of range",
                params.signature_bits);
}

std::uint32_t
ToucheCache::signatureOf(LineAddr line) const
{
    return static_cast<std::uint32_t>(mix64(line)) & sig_mask_;
}

bool
ToucheCache::aliased(const TadSet &set, LineAddr line) const
{
    const std::uint32_t sig = signatureOf(line);
    const std::uint32_t n = set.itemCount();
    for (std::uint32_t i = 0; i < n; ++i) {
        const LineAddr resident = set.itemLine(i);
        if (resident != line && signatureOf(resident) == sig)
            return true;
    }
    return false;
}

L4ReadResult
ToucheCache::read(LineAddr line, Cycle now)
{
    const std::uint64_t set_idx = indexer_.tsi(line);
    TadSet &set = sets_[set_idx];

    L4ReadResult res;
    // The 80-B Alloy-style burst streams the TAD and its signature
    // array; whether anything *might* match is known from that alone.
    const DramResult probe = device_.access(mapper_.coord(set_idx), 80,
                                            now, AccessKind::DemandRead);
    res.dram_accesses = 1;
    Cycle data_done = probe.done;

    const TadLookup lk = set.lookup(line);

    // An aliasing signature (another resident item hashing like this
    // line) forces a residual-tag verification burst before the
    // hit/miss verdict is trustworthy — signature collisions cost
    // DRAM-cache bandwidth and latency.
    if (aliased(set, line)) {
        ++alias_checks_;
        const DramResult verify =
            device_.access(mapper_.coord(set_idx), kVerifyBytes,
                           data_done, AccessKind::DemandRead);
        data_done = verify.done;
        ++res.dram_accesses;
        if (!lk.found)
            ++false_positives_;
    }

    if (!lk.found) {
        res.done = data_done + config_.controller_latency;
        ++read_misses_;
        return res;
    }

    res.hit = true;
    res.done = data_done + config_.controller_latency +
               config_.decompression_latency;
    res.payload = lk.payload;
    set.touchAt(lk.item, ++lru_clock_);
    ++read_hits_;
    return res;
}

L4WriteResult
ToucheCache::install(LineAddr line, std::uint64_t payload, bool dirty,
                     Cycle now, bool after_read_miss)
{
    ++installs_;
    const std::uint64_t set_idx = indexer_.tsi(line);
    TadSet &set = sets_[set_idx];

    L4WriteResult res;
    res.dram_accesses = 0;
    Cycle when = now;

    // Writebacks first read the target TAD to learn what is resident
    // (a fill after a read miss already streamed it).
    if (!after_read_miss) {
        const DramResult probe = device_.access(
            mapper_.coord(set_idx), 80, when, AccessKind::PostedRead);
        when = probe.done;
        ++res.dram_accesses;
    }

    const std::uint32_t lines_before = set.lineCount();
    const std::uint32_t size =
        codec_.compressedSizeBytes(source_.bytes(line, payload));

    if (set.contains(line))
        set.remove(line, 0);
    while (!set.fits(size, 1)) {
        if (!set.evictLru(line, res.writebacks))
            dice_panic("Touché set cannot make room");
    }
    set.insertSingle(line, size, dirty, payload, false, ++lru_clock_);

    device_.access(mapper_.coord(set_idx), 72, when,
                   AccessKind::PostedWrite);
    ++res.dram_accesses;

    valid_lines_ += set.lineCount();
    valid_lines_ -= lines_before;
    return res;
}

bool
ToucheCache::contains(LineAddr line) const
{
    return sets_[indexer_.tsi(line)].contains(line);
}

std::uint64_t
ToucheCache::validLines() const
{
    return valid_lines_;
}

std::uint64_t
ToucheCache::bytesUsed() const
{
    std::uint64_t total = 0;
    for (const TadSet &set : sets_)
        total += set.bytesUsed();
    return total;
}

void
ToucheCache::resetStats()
{
    DramCache::resetStats();
    alias_checks_ = false_positives_ = 0;
}

StatGroup
ToucheCache::stats() const
{
    StatGroup g = DramCache::stats();
    g.addFormula("alias_checks",
                 [this]() { return double(alias_checks_); });
    g.addFormula("false_positives",
                 [this]() { return double(false_positives_); });
    return g;
}

} // namespace dice
