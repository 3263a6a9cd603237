/**
 * @file
 * google-benchmark microbenchmarks of the simulation loop itself:
 * end-to-end refs/sec of System::run() under each L4 organization of
 * the fig10 comparison, plus System construction cost. Every benchmark
 * reports heap allocations so storage regressions in the hot loop
 * (e.g. a node-based map sneaking back in) show up as a counter jump,
 * not just a slowdown.
 *
 * `micro_simloop --check` runs the steady-state allocation gate used
 * by ctest: it measures allocations per simulated reference in the
 * steady phase (the delta between a long and a short run of the same
 * configuration, so construction and cold-start fills cancel) and
 * fails when the rate exceeds the budget below.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/page_alloc.hpp"
#include "common/sweep_events.hpp"
#include "core/tad.hpp"
#include "harness.hpp"
#include "workloads/trace_arena.hpp"

// Global heap-allocation counter (same scheme as micro_compress).
static std::atomic<std::size_t> g_heap_allocs{0};

/** Allocations so far: operator new calls plus page-mapped blocks. */
static std::size_t
allocationsSoFar()
{
    return g_heap_allocs.load(std::memory_order_relaxed) +
           dice::pageBlocksHandedOut();
}

// GCC cannot see that the replaced operator new below is the matching
// malloc-based allocator for these frees.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using dice::System;
using dice::SystemConfig;
using namespace dice::bench;

/**
 * Steady-state allocation budget (allocations per simulated L3
 * reference) enforced by `--check`. The dense-set + FlatMap storage
 * brought the node-map model's ~1.9 down to ~0.12; replacing the
 * core model's in-flight deque with a fixed ring removed the
 * remaining block churn, so the budget tightens accordingly.
 */
constexpr double kMaxSteadyAllocsPerRef = 0.12;

/** Workload every sim-loop benchmark replays (paper Table 3's mcf). */
constexpr const char *kWorkload = "mcf";

/**
 * fig10-scale configuration with a fixed reference budget: unlike the
 * table benches this must not follow DICE_BENCH_REFS, or refs/sec
 * comparisons across runs would silently measure different work.
 */
SystemConfig
simBase(std::uint64_t refs_per_core)
{
    SystemConfig cfg = defaultBase();
    cfg.refs_per_core = refs_per_core;
    cfg.warmup_refs_per_core = refs_per_core / 2;
    return cfg;
}

SystemConfig
orgConfig(const std::string &org, std::uint64_t refs_per_core)
{
    SystemConfig cfg = simBase(refs_per_core);
    if (org == "none") {
        cfg.l4.organization = "none";
        return cfg;
    }
    if (org == "alloy")
        return configureBaseline(cfg);
    if (org == "tsi")
        return configureCompressed(cfg, dice::CompressionPolicy::TsiOnly);
    if (org == "dice")
        return configureDice(cfg);
    // Any other registered organization name ("scc", "banshee",
    // "touche", ...) resolves through the registry.
    return configureOrganization(cfg, org);
}

/** Simulated references one System::run() executes (all phases). */
double
refsPerRun(const SystemConfig &cfg)
{
    return static_cast<double>(
        (cfg.refs_per_core + cfg.warmup_refs_per_core) * cfg.num_cores);
}

/// Reports heap allocations per simulated reference as a counter.
class AllocScope
{
public:
    AllocScope(benchmark::State &state, double refs_per_iter)
        : state_(state), refs_per_iter_(refs_per_iter),
          start_(allocationsSoFar())
    {
    }

    ~AllocScope()
    {
        const std::size_t n = allocationsSoFar() - start_;
        state_.counters["heap_allocs_per_ref"] = benchmark::Counter(
            static_cast<double>(n) /
            (refs_per_iter_ *
             static_cast<double>(state_.iterations())));
    }

private:
    benchmark::State &state_;
    double refs_per_iter_;
    std::size_t start_;
};

/** Phase 1: System construction (storage reservation) only. */
void
BM_SimBuild(benchmark::State &state, const std::string &org)
{
    const SystemConfig cfg = orgConfig(org, 10'000);
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    for (auto _ : state) {
        System sys(cfg, profiles);
        benchmark::DoNotOptimize(&sys);
    }
}

/**
 * Phase 2: the full warmup + measurement simulation loop. Long enough
 * (30k refs/core) that steady-state simulation dominates one-time
 * construction, as it does in the paper-scale runs.
 */
void
BM_SimLoop(benchmark::State &state, const std::string &org)
{
    const SystemConfig cfg = orgConfig(org, 30'000);
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    const double refs = refsPerRun(cfg);
    AllocScope allocs(state, refs);
    for (auto _ : state) {
        System sys(cfg, profiles);
        dice::RunResult r = sys.run();
        benchmark::DoNotOptimize(&r);
    }
    state.counters["refs_per_sec"] = benchmark::Counter(
        refs * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/** Stream length one System::run() consumes (prime + all phases). */
std::uint64_t
streamRefs(const SystemConfig &cfg)
{
    return cfg.warmup_refs_per_core + cfg.refs_per_core + 1;
}

/** Packed pre-generation throughput: what the arena pays per miss. */
void
BM_TraceGen(benchmark::State &state)
{
    const SystemConfig cfg = simBase(30'000);
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    const double refs = static_cast<double>(streamRefs(cfg)) *
                        static_cast<double>(cfg.num_cores);
    for (auto _ : state) {
        auto set = dice::generateTraceSet(
            profiles, cfg.num_cores, cfg.reference_capacity, cfg.seed,
            streamRefs(cfg), 1);
        benchmark::DoNotOptimize(&set);
    }
    state.counters["refs_per_sec"] = benchmark::Counter(
        refs * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGen);

/**
 * The simulation loop replaying an arena stream instead of running
 * the generator inline. The refs/sec delta against BM_SimLoop of the
 * same organization is the per-cell trace-generation share a sweep
 * saves on every column after the first.
 */
void
BM_SimLoopReplay(benchmark::State &state, const std::string &org)
{
    const SystemConfig cfg = orgConfig(org, 30'000);
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    const auto set = dice::generateTraceSet(
        profiles, cfg.num_cores, cfg.reference_capacity, cfg.seed,
        streamRefs(cfg), 1);
    const double refs = refsPerRun(cfg);
    AllocScope allocs(state, refs);
    for (auto _ : state) {
        System sys(cfg, profiles, set);
        dice::RunResult r = sys.run();
        benchmark::DoNotOptimize(&r);
    }
    state.counters["refs_per_sec"] = benchmark::Counter(
        refs * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

#define DICE_SIM_BENCH(org)                                            \
    BENCHMARK_CAPTURE(BM_SimBuild, org, #org);                         \
    BENCHMARK_CAPTURE(BM_SimLoop, org, #org);                          \
    BENCHMARK_CAPTURE(BM_SimLoopReplay, org, #org)

DICE_SIM_BENCH(none);
DICE_SIM_BENCH(alloy);
DICE_SIM_BENCH(tsi);
DICE_SIM_BENCH(dice);
DICE_SIM_BENCH(scc);
DICE_SIM_BENCH(banshee);
DICE_SIM_BENCH(touche);

#undef DICE_SIM_BENCH

/**
 * The TAD-set scans in isolation: per iteration one hit probe, one
 * miss probe, and one evict + refill on a full wide set (SCC
 * geometry, 32 items — the worst-case scan length), without the rest
 * of the simulator in the way.
 */
void
BM_SetScan(benchmark::State &state)
{
    constexpr std::uint32_t kItems = 32;
    dice::TadSet set(/*budget_bytes=*/kItems * dice::kAlloyTagBytes,
                     /*max_lines=*/kItems,
                     /*tag_bytes=*/dice::kAlloyTagBytes);
    for (std::uint32_t i = 0; i < kItems; ++i)
        set.insertSingle(/*line=*/std::uint64_t{i} * 2, /*data_bytes=*/0,
                         /*dirty=*/false, /*payload=*/i, /*bai=*/false,
                         /*lru_stamp=*/i + 1);

    dice::WritebackList wbs;
    std::uint64_t stamp = kItems;
    std::uint64_t hit_line = 2 * (kItems - 1);
    for (auto _ : state) {
        const dice::TadLookup hit = set.lookup(hit_line);
        benchmark::DoNotOptimize(hit.found);
        const dice::TadLookup miss = set.lookup(std::uint64_t{1} << 40);
        benchmark::DoNotOptimize(miss.found);
        wbs.clear();
        // Evict the LRU item and refill so occupancy stays at kItems.
        set.evictLru(hit_line, wbs);
        ++stamp;
        set.insertSingle(stamp * 2, 0, false, stamp, false, stamp);
        hit_line = stamp * 2;
    }
    state.counters["scans_per_sec"] = benchmark::Counter(
        3.0 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SetScan);

/** Allocations one full System lifetime (construct + run) performs. */
std::size_t
allocsForRun(const SystemConfig &cfg)
{
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    const std::size_t start = allocationsSoFar();
    System sys(cfg, profiles);
    dice::RunResult r = sys.run();
    benchmark::DoNotOptimize(&r);
    return allocationsSoFar() - start;
}

/**
 * The ctest allocation gate. Two runs of the fig10 DICE cell differing
 * only in measured references isolate the steady-state allocation
 * rate; a bounded-storage regression (anything that allocates per
 * reference, or a memo that grows without bound) trips the budget.
 */
int
runCheck()
{
    constexpr std::uint64_t kShortRefs = 10'000;
    constexpr std::uint64_t kLongRefs = 4 * kShortRefs;

    SystemConfig short_cfg = orgConfig("dice", kShortRefs);
    SystemConfig long_cfg = orgConfig("dice", kLongRefs);
    // Identical warmup so cold-start fills cancel in the delta, and a
    // cache small enough (16 Ki sets) that the warmup touches every
    // set. Set growth does not finish in the warmup, though: a TadSet
    // keeps its first item inline and allocates only when it first
    // holds a second item (a 4-item block, doubled on later growth),
    // so sets keep spilling for the first time during the measured
    // window. Those one-time spills are most of what this gate counts;
    // the budget still trips on anything that allocates per reference.
    // The fig10-sized cache would still be absorbing first-touch set
    // fills at these reference counts.
    short_cfg.l4.base.capacity = std::uint64_t{1} << 20;
    long_cfg.l4.base.capacity = std::uint64_t{1} << 20;
    long_cfg.warmup_refs_per_core = short_cfg.warmup_refs_per_core;

    const std::size_t short_allocs = allocsForRun(short_cfg);
    const std::size_t long_allocs = allocsForRun(long_cfg);

    const double extra_refs = static_cast<double>(
        (kLongRefs - kShortRefs) * short_cfg.num_cores);
    const std::size_t delta =
        long_allocs > short_allocs ? long_allocs - short_allocs : 0;
    const double per_ref = static_cast<double>(delta) / extra_refs;

    std::printf("micro_simloop --check (16 Ki-set dice cell)\n");
    std::printf("  allocs short run (%llu refs/core): %zu\n",
                static_cast<unsigned long long>(kShortRefs),
                short_allocs);
    std::printf("  allocs long run  (%llu refs/core): %zu\n",
                static_cast<unsigned long long>(kLongRefs), long_allocs);
    std::printf("  steady-state allocs/ref: %.4f (budget %.2f)\n",
                per_ref, kMaxSteadyAllocsPerRef);

    if (per_ref > kMaxSteadyAllocsPerRef) {
        std::printf("  FAIL: simulation loop allocates beyond budget\n");
        return 1;
    }
    std::printf("  OK\n");

    // Sweep-journal hot-path hooks: with no journal open (every
    // process that writes no sweep results directory, such as this
    // one) every emitter must early-return before touching the heap,
    // and a JournalSpan may only sample SweepMetrics (a metric phase)
    // or nothing at all (any other phase), so instrumenting the
    // per-cell loop is free for ordinary bench runs. Hard zero, not a
    // budget.
    {
        dice::SweepJournal &journal = dice::SweepJournal::instance();
        const std::string cell = "mcf_dice";
        const std::size_t start =
            g_heap_allocs.load(std::memory_order_relaxed);
        for (int i = 0; i < 10'000; ++i) {
            journal.claim(cell, false, 7, 2);
            journal.begin("simulate", cell);
            journal.phase("simulate", cell, 0, 42);
            journal.lease("refresh", cell, 3);
            journal.arena("generate", cell, 4096);
            journal.publish(cell);
            journal.batch(1, 40, 4, 900);
            dice::JournalSpan span("simulate", cell);
            dice::JournalSpan inner("measure");
        }
        const std::size_t hook_allocs =
            g_heap_allocs.load(std::memory_order_relaxed) - start;
        std::printf("  disabled journal hooks: %zu allocs across 70k "
                    "emits and 20k spans (budget 0)\n",
                    hook_allocs);
        if (hook_allocs != 0) {
            std::printf("  FAIL: disabled sweep-journal emitters touch "
                        "the heap\n");
            return 1;
        }
        std::printf("  OK\n");
    }

    // Trace-generation share of one live fig10-scale cell: the
    // fraction of a cell's wall time the arena saves on every
    // organization column after the first. Informational (timing is
    // machine-dependent), not gated.
    using Clock = std::chrono::steady_clock;
    const SystemConfig cfg = orgConfig("dice", 30'000);
    const auto profiles = workloadProfiles(kWorkload, cfg.num_cores);
    const std::uint64_t stream_refs =
        cfg.warmup_refs_per_core + cfg.refs_per_core + 1;

    const auto t0 = Clock::now();
    const auto set = dice::generateTraceSet(
        profiles, cfg.num_cores, cfg.reference_capacity, cfg.seed,
        stream_refs, 1);
    const auto t1 = Clock::now();
    {
        System sys(cfg, profiles);
        dice::RunResult r = sys.run();
        benchmark::DoNotOptimize(&r);
    }
    const auto t2 = Clock::now();

    const double gen_s = std::chrono::duration<double>(t1 - t0).count();
    const double live_s = std::chrono::duration<double>(t2 - t1).count();
    std::printf("  trace generation: %.3fs packed (%.1f MiB); live "
                "cell %.3fs -> generation share %.1f%%\n",
                gen_s,
                static_cast<double>(set->bytes()) / (1024.0 * 1024.0),
                live_s, 100.0 * gen_s / live_s);
    std::printf("  live cell throughput: %.0f refs/s (informational; "
                "timing is machine-dependent)\n",
                static_cast<double>(stream_refs * cfg.num_cores) /
                    live_s);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            return runCheck();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
