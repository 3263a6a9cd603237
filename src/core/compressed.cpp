#include "compressed.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/knobs.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"

namespace dice
{

const char *
policyName(CompressionPolicy policy)
{
    switch (policy) {
      case CompressionPolicy::TsiOnly:
        return "comp-tsi";
      case CompressionPolicy::NsiOnly:
        return "comp-nsi";
      case CompressionPolicy::BaiOnly:
        return "comp-bai";
      case CompressionPolicy::Dice:
        return "dice";
      default:
        return "?";
    }
}

CompressedDramCache::CompressedDramCache(
    const CompressedCacheConfig &config, const LineDataSource &source,
    std::string name)
    : DramCache(config.base, std::move(name)), cfg_(config),
      indexer_(floorLog2(config.base.capacity / kLineSize)),
      mapper_(config.base.timing), source_(source),
      cip_(config.cip_entries), sets_(config.base.capacity / kLineSize),
      trace_enabled_(knobFlag(Knob::DecisionTrace))
{
    dice_assert(isPowerOfTwo(config.base.capacity / kLineSize),
                "compressed cache needs a power-of-two set count");
    dice_assert(config.threshold_bytes <= kLineSize,
                "threshold %u exceeds line size", config.threshold_bytes);
}

const char *
CompressedDramCache::organization() const
{
    return policyName(cfg_.policy);
}

CompressedDramCache::Candidates
CompressedDramCache::readCandidates(LineAddr line) const
{
    Candidates c{};
    switch (cfg_.policy) {
      case CompressionPolicy::TsiOnly:
        c.primary = c.secondary = indexer_.tsi(line);
        c.primary_scheme = IndexScheme::TSI;
        c.single = true;
        return c;
      case CompressionPolicy::NsiOnly:
        c.primary = c.secondary = indexer_.nsi(line);
        c.primary_scheme = IndexScheme::NSI;
        c.single = true;
        return c;
      case CompressionPolicy::BaiOnly:
        c.primary = c.secondary = indexer_.bai(line);
        c.primary_scheme = IndexScheme::BAI;
        c.single = true;
        return c;
      case CompressionPolicy::Dice: {
        if (indexer_.baiInvariant(line)) {
            c.primary = c.secondary = indexer_.tsi(line);
            c.primary_scheme = IndexScheme::TSI;
            c.single = true;
            return c;
        }
        const IndexScheme predicted = cip_.predictRead(line);
        c.primary_scheme = predicted;
        c.primary = indexer_.set(line, predicted);
        c.secondary = SetIndexer::alternateSet(c.primary);
        c.single = false;
        return c;
      }
      default:
        dice_panic("bad policy");
    }
}

IndexScheme
CompressedDramCache::installScheme(LineAddr line, std::uint32_t size,
                                   bool &invariant) const
{
    invariant = false;
    switch (cfg_.policy) {
      case CompressionPolicy::TsiOnly:
        return IndexScheme::TSI;
      case CompressionPolicy::NsiOnly:
        return IndexScheme::NSI;
      case CompressionPolicy::BaiOnly:
        return IndexScheme::BAI;
      case CompressionPolicy::Dice:
        if (indexer_.baiInvariant(line)) {
            invariant = true;
            return IndexScheme::TSI; // TSI == BAI for this line.
        }
        return size <= cfg_.threshold_bytes ? IndexScheme::BAI
                                            : IndexScheme::TSI;
      default:
        dice_panic("bad policy");
    }
}

std::uint32_t
CompressedDramCache::pairSize(LineAddr line, const Line &line_bytes,
                              std::uint32_t line_size,
                              const TadLookup &nb) const
{
    // The neighbor's single size is its resident item's size. When the
    // independent sizes already beat every shared-base mode (the
    // smallest is B8D1's 24 B) the joint pass cannot win, so only then
    // is the neighbor synthesized.
    dice_assert(!nb.in_pair, "neighbor still paired with the new line");
    const std::uint32_t independent = line_size + nb.data_bytes;
    if (independent <= 24)
        return independent;
    const Line nb_bytes =
        source_.bytes(SetIndexer::spatialNeighbor(line), nb.payload);
    if ((line & 1) == 0) {
        return codec_.pairSizeBytes(line_bytes, nb_bytes, line_size,
                                    nb.data_bytes);
    }
    return codec_.pairSizeBytes(nb_bytes, line_bytes, nb.data_bytes,
                                line_size);
}

L4ReadResult
CompressedDramCache::read(LineAddr line, Cycle now)
{
    const Candidates cand = readCandidates(line);

    L4ReadResult res;
    const DramResult probe1 = device_.access(mapper_.coord(cand.primary),
                                             readBytes(), now, false);
    res.dram_accesses = 1;

    auto finishHit = [&](std::uint64_t set_idx, const TadLookup &lk,
                         Cycle data_done) {
        res.hit = true;
        res.done = data_done + config_.controller_latency +
                   config_.decompression_latency;
        res.payload = lk.payload;
        if (lk.neighbor_present) {
            res.has_extra = true;
            res.extra_line = SetIndexer::spatialNeighbor(line);
            res.extra_payload = lk.neighbor_payload;
            ++extra_lines_;
        }
        sets_[set_idx].touchAt(lk.item, ++lru_clock_);
        ++read_hits_;
    };

    const TadLookup lk1 = sets_[cand.primary].lookup(line);

    if (lk1.found) {
        finishHit(cand.primary, lk1, probe1.done);
        if (!cand.single)
            cip_.updateRead(line, cand.primary_scheme);
        return res;
    }

    if (cand.single) {
        res.done = probe1.done + config_.controller_latency;
        ++read_misses_;
        return res;
    }

    // Two candidate locations. In Alloy mode the 8-B neighbor-tag burst
    // tells us for free whether the line sits in the alternate set; a
    // second access is issued only when it does. In KNL mode there is
    // no neighbor tag, so the controller issues a merged probe of the
    // alternate set whenever the first probe did not hit.
    const TadLookup lk2 = sets_[cand.secondary].lookup(line);

    const IndexScheme alternate_scheme =
        cand.primary_scheme == IndexScheme::BAI ? IndexScheme::TSI
                                                : IndexScheme::BAI;

    if (cfg_.knl_mode) {
        const DramResult probe2 = device_.access(
            mapper_.coord(cand.secondary), readBytes(), now, false);
        ++res.dram_accesses;
        if (lk2.found) {
            ++second_probes_;
            finishHit(cand.secondary, lk2,
                      std::max(probe1.done, probe2.done));
            cip_.updateRead(line, alternate_scheme);
            return res;
        }
        res.done = std::max(probe1.done, probe2.done) +
                   config_.controller_latency;
        ++read_misses_;
        return res;
    }

    if (lk2.found) {
        const DramResult probe2 = device_.access(
            mapper_.coord(cand.secondary), readBytes(), probe1.done,
            false);
        ++res.dram_accesses;
        ++second_probes_;
        finishHit(cand.secondary, lk2, probe2.done);
        cip_.updateRead(line, alternate_scheme);
        return res;
    }

    res.done = probe1.done + config_.controller_latency;
    ++read_misses_;
    return res;
}

void
CompressedDramCache::removeResident(TadSet &set, LineAddr line,
                                    const TadLookup &lk)
{
    dice_assert(lk.found, "removeResident of absent line");
    std::uint32_t survivor_bytes = 0;
    if (lk.in_pair) {
        // The pair item holds both halves, so the lookup above already
        // reported the survivor's payload.
        dice_assert(lk.neighbor_present, "pair without its other half");
        const LineAddr neighbor = SetIndexer::spatialNeighbor(line);
        survivor_bytes = codec_.compressedSizeBytes(
            source_.bytes(neighbor, lk.neighbor_payload));
    }
    set.removeAt(lk.item, line, survivor_bytes);
}

L4WriteResult
CompressedDramCache::install(LineAddr line, std::uint64_t payload,
                             bool dirty, Cycle now, bool after_read_miss)
{
    ++installs_;

    // The line is synthesized and sized once; the pair pass below
    // reuses both.
    const Line bytes = source_.bytes(line, payload);
    const std::uint32_t size = codec_.compressedSizeBytes(bytes);
    bool invariant = false;
    const IndexScheme scheme = installScheme(line, size, invariant);
    const std::uint64_t target = indexer_.set(line, scheme);

    if (cfg_.policy == CompressionPolicy::Dice) {
        if (invariant) {
            ++installs_invariant_;
        } else if (scheme == IndexScheme::BAI) {
            ++installs_bai_;
        } else {
            ++installs_tsi_;
        }
    }

    L4WriteResult res;
    res.dram_accesses = 0;
    Cycle when = now;

    // Everything below mutates at most the target set and its
    // alternate (the only other place the line can live), so the
    // resident-line count is settled from their before/after deltas.
    const std::uint64_t alt = SetIndexer::alternateSet(target);
    const std::uint64_t lines_before =
        sets_[target].lineCount() + sets_[alt].lineCount();

    // Writebacks (and fills whose read probe went to the other set)
    // first read the target TAD to learn what is resident.
    if (!after_read_miss) {
        const DramResult probe =
            device_.access(mapper_.coord(target), readBytes(), when,
                           AccessKind::PostedRead);
        when = probe.done;
        ++res.dram_accesses;
    }

    const bool dual = cfg_.policy == CompressionPolicy::Dice && !invariant;
    TadLookup target_lk; // membership before any scrubbing below
    if (dual) {
        // One membership probe per candidate set serves the write
        // predictor, the duplicate scrub, and the update check: the
        // TSI and BAI sets are the only two places the line can be,
        // and nothing mutates them between these uses (the scrub only
        // touches the non-target set, so the target lookup stays
        // valid for the update removal below).
        const std::uint64_t tsi_set = indexer_.tsi(line);
        const std::uint64_t bai_set = indexer_.bai(line);
        const TadLookup tsi_lk = sets_[tsi_set].lookup(line);
        const TadLookup bai_lk = sets_[bai_set].lookup(line);

        // Score the size-based write predictor against where the line
        // actually was.
        const IndexScheme predicted =
            cip_.predictWrite(size, cfg_.threshold_bytes);
        IndexScheme actual = predicted;
        if (tsi_lk.found) {
            actual = IndexScheme::TSI;
        } else if (bai_lk.found) {
            actual = IndexScheme::BAI;
        }
        cip_.scoreWrite(predicted, actual);

        // Scrub a stale copy from the alternate location so a line is
        // never valid under both indexings at once.
        const std::uint64_t other = SetIndexer::alternateSet(target);
        const TadLookup &other_lk = other == tsi_set ? tsi_lk : bai_lk;
        if (other_lk.found) {
            removeResident(sets_[other], line, other_lk);
            device_.access(mapper_.coord(other), 72, when, true);
            ++res.dram_accesses;
            ++duplicate_scrubs_;
        }

        cip_.train(line, scheme);
        target_lk = target == tsi_set ? tsi_lk : bai_lk;
    } else {
        target_lk = sets_[target].lookup(line);
    }

    TadSet &set = sets_[target];

    // An update of a resident line is a remove + reinsert with the new
    // compressed size (its old copy is superseded, never written back).
    if (target_lk.found)
        removeResident(set, line, target_lk);

    // Try to merge with the spatial neighbor into a shared-tag pair.
    // Its pair partner is the line itself, removed above, so it is a
    // single.
    const LineAddr neighbor = SetIndexer::spatialNeighbor(line);
    const TadLookup nb = set.lookup(neighbor);
    bool inserted = false;
    if (nb.found && cfg_.pair_compression) {
        const LineAddr base = SetIndexer::pairBase(line);
        const std::uint32_t pair_bytes = pairSize(line, bytes, size, nb);
        if (kTadTagBytes + pair_bytes <= kTadSetBytes) { // pair fits a TAD
            removeResident(set, neighbor, nb);
            while (!set.fits(pair_bytes, 2)) {
                if (!set.evictLru(line, res.writebacks))
                    dice_panic("cannot make room for pair");
            }
            const bool even_is_new = (line & 1) == 0;
            set.insertPair(base, pair_bytes,
                           even_is_new ? dirty : nb.dirty,
                           even_is_new ? payload : nb.payload,
                           even_is_new ? nb.dirty : dirty,
                           even_is_new ? nb.payload : payload,
                           scheme == IndexScheme::BAI, ++lru_clock_);
            ++pair_installs_;
            inserted = true;
        }
    }

    if (!inserted) {
        while (!set.fits(size, 1)) {
            if (!set.evictLru(line, res.writebacks))
                dice_panic("cannot make room for line");
        }
        set.insertSingle(line, size, dirty, payload,
                         scheme == IndexScheme::BAI, ++lru_clock_);
    }

    device_.access(mapper_.coord(target), 72, when, true);
    ++res.dram_accesses;

    valid_lines_ += sets_[target].lineCount() + sets_[alt].lineCount();
    valid_lines_ -= lines_before;

    if (trace_enabled_) {
        install_ring_.push(InstallTrace{line, size, scheme, invariant,
                                        inserted});
    }
    return res;
}

L4Metrics
CompressedDramCache::metrics() const
{
    L4Metrics m;
    m.second_probes = second_probes_;
    m.installs_invariant = installs_invariant_;
    m.installs_bai = installs_bai_;
    m.installs_tsi = installs_tsi_;
    m.cip_read_accuracy = cip_.readAccuracy();
    m.cip_write_accuracy = cip_.writeAccuracy();
    return m;
}

void
CompressedDramCache::registerExtraStats(StatRegistry &registry) const
{
    registry.add("cip", [this] { return cip_.stats(); });
}

void
CompressedDramCache::enableDecisionTrace(bool enabled)
{
    trace_enabled_ = enabled;
    cip_.enableDecisionTrace(enabled);
    if (!enabled)
        install_ring_.clear();
}

bool
CompressedDramCache::contains(LineAddr line) const
{
    for (const IndexScheme scheme :
         {IndexScheme::TSI, IndexScheme::NSI, IndexScheme::BAI}) {
        if (sets_[indexer_.set(line, scheme)].contains(line))
            return true;
    }
    return false;
}

std::uint64_t
CompressedDramCache::validLines() const
{
    return valid_lines_;
}

std::uint64_t
CompressedDramCache::bytesUsed() const
{
    std::uint64_t total = 0;
    for (const TadSet &set : sets_)
        total += set.bytesUsed();
    return total;
}

void
CompressedDramCache::resetStats()
{
    DramCache::resetStats();
    installs_invariant_ = installs_bai_ = installs_tsi_ = 0;
    pair_installs_ = second_probes_ = duplicate_scrubs_ = 0;
    cip_.resetStats();
}

StatGroup
CompressedDramCache::stats() const
{
    StatGroup g = DramCache::stats();
    g.addFormula("installs_invariant",
                 [this]() { return double(installs_invariant_); });
    g.addFormula("installs_bai",
                 [this]() { return double(installs_bai_); });
    g.addFormula("installs_tsi",
                 [this]() { return double(installs_tsi_); });
    g.addFormula("pair_installs",
                 [this]() { return double(pair_installs_); });
    g.addFormula("second_probes",
                 [this]() { return double(second_probes_); });
    g.addFormula("duplicate_scrubs",
                 [this]() { return double(duplicate_scrubs_); });
    g.addFormula("cip_read_accuracy",
                 [this]() { return cip_.readAccuracy(); });
    g.addFormula("cip_write_accuracy",
                 [this]() { return cip_.writeAccuracy(); });
    return g;
}

} // namespace dice
