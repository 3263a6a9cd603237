/**
 * @file
 * Full-system assembly: N trace-driven cores -> shared L3 -> L4 DRAM
 * cache -> DDR main memory, with MAP-I hit/miss prediction at the L4
 * boundary and the energy model on top. The cores issue L3-level
 * reference streams (workload profiles are calibrated in L3 accesses
 * per kilo-instruction), so private L1/L2 caches are not simulated.
 *
 * This is the driver every benchmark binary uses: construct a System
 * from a SystemConfig plus one workload profile per core, call run(),
 * and read the RunResult.
 */

#ifndef DICE_SIM_SYSTEM_HPP
#define DICE_SIM_SYSTEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/sram_cache.hpp"
#include "common/flat_map.hpp"
#include "common/page_alloc.hpp"
#include "common/telemetry.hpp"
#include "core/dram_cache.hpp"
#include "core/l4_registry.hpp"
#include "core/mapi.hpp"
#include "sim/core_model.hpp"
#include "sim/energy.hpp"
#include "sim/memory.hpp"
#include "workloads/datagen.hpp"
#include "workloads/trace_arena.hpp"
#include "workloads/trace_source.hpp"
#include "workloads/tracegen.hpp"

namespace dice
{

/** Configuration of one simulated system. */
struct SystemConfig
{
    std::uint32_t num_cores = 8;
    CoreConfig core;

    SramCacheConfig l3{"l3", 256_KiB, 8, 30};

    /**
     * Tagged L4 organization config, consumed by the L4Registry:
     * l4.organization names the policy ("none" disables the L4),
     * l4.base is shared, and the policy-specific parameter group is
     * validated against the selected organization.
     */
    L4Config l4;

    DramTiming mem_timing = DramTiming::mainMemoryDdr();

    /** Forward the free spatial neighbor from L4 hits into L3. */
    bool extra_line_to_l3 = true;
    /** L3 next-line prefetch (Table 7). */
    bool l3_nextline_prefetch = false;
    /** 128-B wide fetch at L3 (Table 7). */
    bool l3_wide_fetch = false;

    /**
     * Footprints in profiles are expressed relative to a 1-GiB L4;
     * they are scaled by reference_capacity / 1 GiB. Keeping this
     * independent of the L4's actual capacity lets the 2x-capacity
     * studies grow the cache without shrinking the workload.
     */
    std::uint64_t reference_capacity = 32_MiB;

    /** L3-level references simulated per core (measurement phase). */
    std::uint64_t refs_per_core = 200'000;

    /**
     * References per core executed before measurement begins: cache
     * contents and predictor state carry over, statistics and cycle
     * counting restart at the boundary.
     */
    std::uint64_t warmup_refs_per_core = 0;

    EnergyParams energy;
    std::uint64_t seed = 1;
};

/** Measurements from one run. */
struct RunResult
{
    Cycle cycles = 0;
    std::vector<Cycle> core_cycles;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    double l3_hit_rate = 0.0;
    double l4_hit_rate = 0.0;
    std::uint64_t l4_reads = 0;
    std::uint64_t l4_extra_lines = 0;
    std::uint64_t l4_second_probes = 0;

    double cip_read_accuracy = 1.0;
    double cip_write_accuracy = 1.0;
    double mapi_accuracy = 1.0;

    /** Install-index distribution (Figure 11); fractions of installs. */
    double frac_invariant = 0.0;
    double frac_bai = 0.0;
    double frac_tsi = 0.0;

    /** Mean valid lines sampled during the run (Table 5). */
    double avg_valid_lines = 0.0;

    std::uint64_t l4_bytes = 0;
    std::uint64_t mem_bytes = 0;

    /** Mean latency of demand reads that missed L3 (cycles). */
    double avg_miss_latency = 0.0;

    EnergyBreakdown energy;
};

/** One simulated machine. */
class System
{
  public:
    /**
     * @param config System parameters.
     * @param core_profiles One workload profile per core (rate mode
     *        replicates a single profile).
     * @param replay Pre-generated per-core streams to replay (e.g.
     *        from the TraceArena); null generates live. A replayed
     *        run is bit-identical to a live one — the arena records
     *        exactly what the same (profile, region, seed) generator
     *        would emit — but a sweep pays generation only once per
     *        stream instead of once per organization column. Each
     *        stream must hold at least warmup + measured + 1
     *        references (the simulator primes one ahead).
     */
    System(const SystemConfig &config,
           std::vector<WorkloadProfile> core_profiles,
           std::shared_ptr<const TraceSet> replay = nullptr);

    /** The stat registry holds this-capturing providers over every
     *  component; moving or copying the system would dangle them. */
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Simulate refs_per_core references on every core. */
    RunResult run();

    /**
     * Telemetry registry over every component of this system (L3, L4
     * and its DRAM device, CIP, MAP-I, main memory, the trace arena).
     * Values are live; run() additionally appends interval snapshots
     * every DICE_STATS_INTERVAL references when that knob is set.
     */
    StatRegistry &statRegistry() { return registry_; }
    const StatRegistry &statRegistry() const { return registry_; }

    /** The L4, for white-box inspection in tests (may be null). */
    DramCache *l4() { return l4_.get(); }
    SramCache &l3() { return *l3_; }
    MainMemory &memory() { return mem_; }
    const DataGenerator &dataGenerator() const { return datagen_; }

    /** Data version the system currently attributes to @p line. */
    std::uint64_t expectedVersion(LineAddr line) const;

  private:
    struct CoreState
    {
        TraceCore core;
        std::unique_ptr<TraceSource> trace;
        std::uint64_t refs_done = 0;
        MemRef pending{};
    };

    /** Process one reference of core @p cid; returns issue cycle. */
    void step(std::uint32_t cid);

    /** Run every core up to @p target_refs references. */
    void runPhase(std::uint64_t target_refs);

    /** Reset statistics at the warmup/measurement boundary. */
    void resetAllStats();

    /** Register every component's StatGroup provider (ctor tail). */
    void registerStats();

    /**
     * Service an L3 miss for @p line at @p when; fills L3 (dirty with
     * @p ver when @p make_dirty). Returns data-ready cycle.
     */
    Cycle fetchIntoL3(LineAddr line, Cycle when, std::uint64_t pc,
                      bool make_dirty, std::uint64_t ver);

    /** Install into L3, cascading dirty victims to L4/memory. */
    void installIntoL3(LineAddr line, bool dirty, std::uint64_t payload,
                       Cycle when);

    /** Push a dirty line below L3 (L4 install or memory write). */
    void writebackBelowL3(LineAddr line, std::uint64_t payload,
                          Cycle when);

    void drainWritebacks(const WritebackList &wbs, Cycle when);

    /**
     * Stream the lines an install requested via fill_fetches from
     * main memory into the L4 (page-granularity organizations):
     * charges the DDR read traffic and hands each payload back
     * through DramCache::completeFill().
     */
    void serviceFillFetches(const L4WriteResult &res, Cycle when);

    std::uint64_t bumpVersion(LineAddr line);

    SystemConfig cfg_;
    std::vector<WorkloadProfile> profiles_;
    DataGenerator datagen_;
    std::vector<CoreState> cores_;
    std::unique_ptr<SramCache> l3_;
    std::unique_ptr<DramCache> l4_;
    MainMemory mem_;
    MapI mapi_;

    /** Open-addressed line -> store count (hot on every write ref). */
    FlatMap<LineAddr, std::uint64_t, Mix64Hash, PageAllocator>
        write_counts_;
    std::uint64_t refs_total_ = 0;
    double miss_latency_sum_ = 0.0;
    std::uint64_t miss_latency_count_ = 0;
    std::uint64_t valid_samples_ = 0;
    double valid_accum_ = 0.0;
    std::uint64_t sample_interval_ = 0;

    StatRegistry registry_;
    /**
     * Refs over the system's whole lifetime. Unlike refs_total_ it is
     * never reset at the warmup/measure boundary, so the interval
     * snapshots it stamps stay strictly monotonic across the run.
     */
    std::uint64_t refs_lifetime_ = 0;
    /** Refs between interval snapshots (DICE_STATS_INTERVAL; 0=off). */
    std::uint64_t stats_interval_refs_ = 0;
    /** Label interval snapshots carry ("warmup" / "measure"). */
    const char *phase_ = "warmup";
};

/** Weighted speedup of @p test over @p base (per-core cycle ratios). */
double weightedSpeedup(const RunResult &base, const RunResult &test);

} // namespace dice

#endif // DICE_SIM_SYSTEM_HPP
