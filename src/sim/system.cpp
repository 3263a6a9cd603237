#include "system.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/sweep_events.hpp"
#include "workloads/region_plan.hpp"

namespace dice
{

System::System(const SystemConfig &config,
               std::vector<WorkloadProfile> core_profiles,
               std::shared_ptr<const TraceSet> replay)
    : cfg_(config), profiles_(std::move(core_profiles)),
      mem_(config.mem_timing)
{
    dice_assert(profiles_.size() == cfg_.num_cores,
                "expected %u per-core profiles, got %zu", cfg_.num_cores,
                profiles_.size());
    if (replay) {
        dice_assert(replay->streams.size() == cfg_.num_cores,
                    "replay set has %zu streams for %u cores",
                    replay->streams.size(), cfg_.num_cores);
        const std::uint64_t needed =
            cfg_.warmup_refs_per_core + cfg_.refs_per_core + 1;
        for (const PackedTrace &t : replay->streams) {
            dice_assert(t.size() >= needed,
                        "replay stream of %zu refs is shorter than the "
                        "%llu the run consumes",
                        t.size(),
                        static_cast<unsigned long long>(needed));
        }
    }

    write_counts_.reserve(1 << 16);
    l3_ = std::make_unique<SramCache>(cfg_.l3);

    // Per-core regions scaled so footprint/capacity pressure matches
    // the paper's Table 3 against a 1-GiB cache. planCoreRegions is
    // shared with the TraceArena so replayed streams see the same
    // layout the live generator would.
    const std::vector<CoreRegion> regions = planCoreRegions(
        cfg_.num_cores, cfg_.reference_capacity, profiles_);
    cores_.reserve(cfg_.num_cores);
    for (std::uint32_t cid = 0; cid < cfg_.num_cores; ++cid) {
        const LineAddr start = regions[cid].start;
        const std::uint64_t lines = regions[cid].lines;
        datagen_.addRegion(start, start + lines, profiles_[cid]);

        std::unique_ptr<TraceSource> source;
        if (replay) {
            source = std::make_unique<ReplayTraceSource>(
                TraceSet::stream(replay, cid));
        } else {
            source = std::make_unique<LiveTraceSource>(
                profiles_[cid], start, lines, mix64(cfg_.seed, cid));
        }

        cores_.push_back(
            CoreState{TraceCore(cfg_.core), std::move(source), 0, MemRef{}});
    }

    // The registry validates the tagged config (unknown names and
    // mismatched parameter groups panic) and returns null for "none".
    l4_ = L4Registry::instance().create(cfg_.l4, datagen_);

    stats_interval_refs_ = statsIntervalRefs();
    registerStats();
}

void
System::registerStats()
{
    registry_.add("system", [this] {
        StatGroup g("system");
        g.addFormula("refs", [this] { return double(refs_total_); });
        g.addFormula("l3_miss_latency_avg", [this] {
            return miss_latency_count_ > 0
                       ? miss_latency_sum_ /
                             static_cast<double>(miss_latency_count_)
                       : 0.0;
        });
        g.addFormula("l3_misses_timed",
                     [this] { return double(miss_latency_count_); });
        return g;
    });
    registry_.add("l3", [this] { return l3_->stats(); });
    if (l4_) {
        registry_.add("l4", [this] { return l4_->stats(); });
        registry_.add("l4.dram",
                      [this] { return l4_->device().stats(); });
        // Organization-specific groups (e.g. the compressed cache's
        // "cip") register themselves — no special-casing here.
        l4_->registerExtraStats(registry_);
    }
    registry_.add("mapi", [this] { return mapi_.stats(); });
    registry_.add("mem.dram", [this] { return mem_.device().stats(); });
    // The arena is process-wide, but including its counters in every
    // cell's export shows each cell the hit/eviction state it ran
    // under (a stalling sweep is usually an arena thrashing story).
    registry_.add("trace_arena",
                  [] { return TraceArena::instance().statGroup(); });
    // Likewise process-wide: the sweep phase-latency histograms
    // (claim-wait, generate, simulate, export, whole-cell, lease ops)
    // this cell's run contributed to.
    registry_.add("sweep",
                  [] { return SweepMetrics::instance().statGroup(); });
}

std::uint64_t
System::bumpVersion(LineAddr line)
{
    return ++write_counts_[line];
}

std::uint64_t
System::expectedVersion(LineAddr line) const
{
    return write_counts_.valueOr(line, 0);
}

void
System::drainWritebacks(const WritebackList &wbs, Cycle when)
{
    for (const EvictedLine &wb : wbs)
        mem_.write(wb.line, wb.payload, when);
}

void
System::serviceFillFetches(const L4WriteResult &res, Cycle when)
{
    for (const LineAddr line : res.fill_fetches) {
        mem_.fetch(line, when);
        l4_->completeFill(line, mem_.versionOf(line), when);
    }
}

void
System::writebackBelowL3(LineAddr line, std::uint64_t payload, Cycle when)
{
    if (!l4_) {
        mem_.write(line, payload, when);
        return;
    }
    const L4WriteResult res = l4_->install(line, payload, true, when,
                                           false);
    drainWritebacks(res.writebacks, when);
    serviceFillFetches(res, when);
}

void
System::installIntoL3(LineAddr line, bool dirty, std::uint64_t payload,
                      Cycle when)
{
    const auto victim = l3_->install(line, dirty, payload);
    if (victim && victim->dirty)
        writebackBelowL3(victim->line, victim->payload, when);
}

Cycle
System::fetchIntoL3(LineAddr line, Cycle when, std::uint64_t pc,
                    bool make_dirty, std::uint64_t ver)
{
    Cycle done;
    std::uint64_t payload = 0;

    // The version probe (a big flat-map lookup) is needed on every
    // path that misses the L4, so start pulling its slot in now and
    // hide the latency under the cache probe.
    mem_.prefetchVersion(line);

    if (!l4_) {
        const DramResult mr = mem_.read(line, when);
        done = mr.done;
        payload = mem_.versionOf(line);
    } else {
        const bool predicted_hit = mapi_.predictHit(pc);
        const L4ReadResult r = l4_->read(line, when);
        if (r.hit) {
            done = r.done;
            payload = r.payload;
            if (r.has_extra && cfg_.extra_line_to_l3 &&
                !l3_->contains(r.extra_line)) {
                installIntoL3(r.extra_line, false, r.extra_payload, done);
            }
        } else {
            // MAP-I: a predicted miss overlaps the memory access with
            // the (futile) cache probe; a predicted hit serializes.
            const Cycle mem_start = predicted_hit ? r.done : when;
            const DramResult mr = mem_.read(line, mem_start);
            done = mr.done;
            payload = mem_.versionOf(line);
            const L4WriteResult w =
                l4_->install(line, payload, false, done, true);
            drainWritebacks(w.writebacks, done);
            serviceFillFetches(w, done);
        }
        mapi_.update(pc, r.hit);
    }

    installIntoL3(line, make_dirty, make_dirty ? ver : payload, done);
    return done;
}

void
System::step(std::uint32_t cid)
{
    CoreState &cs = cores_[cid];
    const MemRef ref = cs.pending;
    const Cycle t = cs.core.prepareIssue(ref.gap_instr);

    const LineAddr line = ref.line;
    if (ref.is_write) {
        const std::uint64_t ver = bumpVersion(line);
        if (!l3_->access(line, AccessType::Write, ver)) {
            // Write-allocate; the store itself does not block the
            // core (post-commit buffer), so only traffic is charged.
            fetchIntoL3(line, t, ref.pc, true, ver);
        }
    } else if (l3_->access(line, AccessType::Read)) {
        cs.core.completeLoad(t + cfg_.l3.hit_latency);
    } else {
        const Cycle done = fetchIntoL3(line, t, ref.pc, false, 0);
        cs.core.completeLoad(done);
        miss_latency_sum_ += static_cast<double>(done - t);
        ++miss_latency_count_;

        // Table 7 L3-side alternatives.
        if (cfg_.l3_wide_fetch) {
            const LineAddr buddy = line ^ 1;
            if (!l3_->contains(buddy))
                fetchIntoL3(buddy, t, ref.pc, false, 0);
        }
        if (cfg_.l3_nextline_prefetch) {
            // The prefetch is issued alongside the demand request (it
            // must not be timestamped at the demand's completion,
            // which would serialize it behind the whole miss).
            const LineAddr next = line + 1;
            if (!l3_->contains(next))
                fetchIntoL3(next, t, ref.pc, false, 0);
        }
    }

    ++cs.refs_done;
    ++refs_total_;
    ++refs_lifetime_;
    if (l4_ && sample_interval_ > 0 &&
        refs_total_ % sample_interval_ == 0) {
        valid_accum_ += static_cast<double>(l4_->validLines());
        ++valid_samples_;
    }
    if (stats_interval_refs_ > 0 &&
        refs_lifetime_ % stats_interval_refs_ == 0)
        registry_.captureInterval(phase_, refs_lifetime_);
    cs.pending = cs.trace->next();
}

void
System::runPhase(std::uint64_t target_refs)
{
    // Event-ordered interleaving: always advance the core whose next
    // reference issues earliest (estimated from its local clock).
    std::uint64_t remaining = 0;
    for (const CoreState &cs : cores_) {
        remaining +=
            target_refs > cs.refs_done ? target_refs - cs.refs_done : 0;
    }

    while (remaining > 0) {
        std::uint32_t best = cfg_.num_cores;
        Cycle best_time = ~Cycle{0};
        for (std::uint32_t cid = 0; cid < cfg_.num_cores; ++cid) {
            const CoreState &cs = cores_[cid];
            if (cs.refs_done >= target_refs)
                continue;
            const Cycle est =
                cs.core.estimateNextIssue(cs.pending.gap_instr);
            if (est < best_time) {
                best_time = est;
                best = cid;
            }
        }
        dice_assert(best < cfg_.num_cores, "no runnable core");
        step(best);
        --remaining;
    }
}

void
System::resetAllStats()
{
    l3_->resetStats();
    if (l4_)
        l4_->resetStats();
    mem_.device().resetStats();
    mapi_.resetStats();
}

RunResult
System::run()
{
    for (CoreState &cs : cores_)
        cs.pending = cs.trace->next();

    const std::uint64_t total_refs =
        cfg_.refs_per_core * cfg_.num_cores;
    sample_interval_ = std::max<std::uint64_t>(1, total_refs / 8);

    std::vector<Cycle> warmup_cycles(cfg_.num_cores, 0);
    if (cfg_.warmup_refs_per_core > 0) {
        JournalSpan span("warmup");
        phase_ = "warmup";
        sample_interval_ = 0; // no occupancy samples during warmup
        runPhase(cfg_.warmup_refs_per_core);
        for (std::uint32_t cid = 0; cid < cfg_.num_cores; ++cid)
            warmup_cycles[cid] = cores_[cid].core.cycle();
        resetAllStats();
        sample_interval_ = std::max<std::uint64_t>(1, total_refs / 8);
        refs_total_ = 0;
        valid_accum_ = 0.0;
        valid_samples_ = 0;
        miss_latency_sum_ = 0.0;
        miss_latency_count_ = 0;
    }

    {
        JournalSpan span("measure");
        phase_ = "measure";
        runPhase(cfg_.warmup_refs_per_core + cfg_.refs_per_core);
    }

    RunResult res;
    res.core_cycles.reserve(cores_.size());
    std::uint64_t instr_total = 0;
    for (std::uint32_t cid = 0; cid < cfg_.num_cores; ++cid) {
        CoreState &cs = cores_[cid];
        cs.core.finish();
        const Cycle measured = cs.core.cycle() - warmup_cycles[cid];
        res.core_cycles.push_back(measured);
        res.cycles = std::max(res.cycles, measured);
        instr_total += cs.core.instructions();
    }
    res.instructions = instr_total;
    res.ipc = res.cycles > 0
                  ? static_cast<double>(res.instructions) /
                        static_cast<double>(res.cycles) /
                        cfg_.num_cores
                  : 0.0;

    res.l3_hit_rate = l3_->hitRate();
    if (l4_) {
        res.l4_hit_rate = l4_->hitRate();
        res.l4_reads = l4_->readHits() + l4_->readMisses();
        res.l4_extra_lines = l4_->extraLinesSupplied();
        res.l4_bytes = l4_->device().bytesMoved();
        // Policy metrics come through the organization interface; the
        // L4Metrics defaults are exactly RunResult's, so organizations
        // without a predictor or install-index choice leave the result
        // untouched.
        const L4Metrics m = l4_->metrics();
        res.cip_read_accuracy = m.cip_read_accuracy;
        res.cip_write_accuracy = m.cip_write_accuracy;
        res.l4_second_probes = m.second_probes;
        const double decided =
            static_cast<double>(m.installs_invariant + m.installs_bai +
                                m.installs_tsi);
        if (decided > 0) {
            res.frac_invariant = m.installs_invariant / decided;
            res.frac_bai = m.installs_bai / decided;
            res.frac_tsi = m.installs_tsi / decided;
        }
        if (valid_samples_ > 0) {
            res.avg_valid_lines =
                valid_accum_ / static_cast<double>(valid_samples_);
        } else {
            res.avg_valid_lines =
                static_cast<double>(l4_->validLines());
        }
    }
    res.mapi_accuracy = mapi_.accuracy();
    res.mem_bytes = mem_.device().bytesMoved();
    res.avg_miss_latency =
        miss_latency_count_ > 0
            ? miss_latency_sum_ / static_cast<double>(miss_latency_count_)
            : 0.0;
    res.energy = computeEnergy(cfg_.energy,
                               l4_ ? &l4_->device() : nullptr,
                               mem_.device(), res.cycles);
    return res;
}

double
weightedSpeedup(const RunResult &base, const RunResult &test)
{
    dice_assert(base.core_cycles.size() == test.core_cycles.size(),
                "mismatched core counts");
    double sum = 0.0;
    for (std::size_t i = 0; i < base.core_cycles.size(); ++i) {
        sum += static_cast<double>(base.core_cycles[i]) /
               static_cast<double>(test.core_cycles[i]);
    }
    return sum / static_cast<double>(base.core_cycles.size());
}

} // namespace dice
