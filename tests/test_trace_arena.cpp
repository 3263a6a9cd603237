/**
 * @file
 * Tests of the shared trace arena: packed-stream round-tripping,
 * replay/live equivalence, keying, LRU byte-budget eviction, and the
 * sweep-level guarantee that a cold-cache multi-organization sweep
 * generates each (workload, seed) stream exactly once, and that
 * DICE_BENCH_NO_CACHE=0 leaves the result cache on.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/sweep_events.hpp"
#include "harness.hpp"
#include "mini_json.hpp"
#include "workloads/packed_trace.hpp"
#include "workloads/region_plan.hpp"
#include "workloads/trace_arena.hpp"
#include "workloads/trace_source.hpp"

namespace dice
{
namespace
{

std::vector<WorkloadProfile>
rateProfiles(const std::string &name, std::uint32_t cores)
{
    return std::vector<WorkloadProfile>(cores, profileByName(name));
}

TEST(PackedTrace, RoundTripsGeneratorOutput)
{
    const WorkloadProfile &prof = profileByName("mcf");
    TraceGenerator gen(prof, 1024, 4096, 42);
    TraceGenerator verify(prof, 1024, 4096, 42);

    PackedTrace packed;
    packed.reserve(20'000);
    for (int i = 0; i < 20'000; ++i)
        packed.append(gen.next());
    packed.seal();

    ASSERT_EQ(packed.size(), 20'000u);
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const MemRef want = verify.next();
        const MemRef got = packed.at(i);
        ASSERT_EQ(got.line, want.line) << "ref " << i;
        ASSERT_EQ(got.is_write, want.is_write) << "ref " << i;
        ASSERT_EQ(got.gap_instr, want.gap_instr) << "ref " << i;
        ASSERT_EQ(got.pc, want.pc) << "ref " << i;
    }
    // The point of the packed layout: well under MemRef's 24 B/ref.
    EXPECT_LT(static_cast<double>(packed.bytes()) /
                  static_cast<double>(packed.size()),
              14.0);
}

TEST(PackedTrace, OverflowPlanesRoundTrip)
{
    // Gaps at/above the 16-bit sentinel and more distinct PCs than the
    // index plane can name must spill to the side tables and still
    // read back exactly.
    PackedTrace packed;
    constexpr std::size_t kRefs = 70'000;
    packed.reserve(kRefs);
    for (std::size_t i = 0; i < kRefs; ++i) {
        MemRef ref;
        ref.line = i * 3 + 1;
        ref.is_write = i % 7 == 0;
        ref.gap_instr = i % 9 == 0
                            ? 0xFFFF + static_cast<std::uint32_t>(i)
                            : static_cast<std::uint32_t>(i % 1000);
        ref.pc = 0x1000 + i; // every PC distinct: overflows the table
        packed.append(ref);
    }
    packed.seal();

    EXPECT_EQ(packed.distinctPcs(), 0xFFFFu);
    for (std::size_t i = 0; i < kRefs; ++i) {
        const MemRef got = packed.at(i);
        ASSERT_EQ(got.line, i * 3 + 1);
        ASSERT_EQ(got.is_write, i % 7 == 0);
        ASSERT_EQ(got.gap_instr,
                  i % 9 == 0 ? 0xFFFF + static_cast<std::uint32_t>(i)
                             : static_cast<std::uint32_t>(i % 1000));
        ASSERT_EQ(got.pc, 0x1000 + i);
    }
}

TEST(TraceSource, ReplayMatchesLiveGeneration)
{
    const std::uint32_t cores = 2;
    const auto profiles = rateProfiles("lbm", cores);
    const std::uint64_t refs = 5'000;
    const std::uint64_t seed = 99;

    const auto set =
        generateTraceSet(profiles, cores, 8_MiB, seed, refs, 2);
    const auto regions = planCoreRegions(cores, 8_MiB, profiles);

    for (std::uint32_t cid = 0; cid < cores; ++cid) {
        LiveTraceSource live(profiles[cid], regions[cid].start,
                             regions[cid].lines, mix64(seed, cid));
        ReplayTraceSource replay(TraceSet::stream(set, cid));
        for (std::uint64_t i = 0; i < refs; ++i) {
            const MemRef want = live.next();
            const MemRef got = replay.next();
            ASSERT_EQ(got.line, want.line) << "core " << cid;
            ASSERT_EQ(got.is_write, want.is_write);
            ASSERT_EQ(got.gap_instr, want.gap_instr);
            ASSERT_EQ(got.pc, want.pc);
        }
    }
}

TEST(TraceArena, KeyedAcquireGeneratesOncePerKey)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    arena.setByteBudget(512_MiB);
    const auto profiles = rateProfiles("mcf", 2);

    const auto a = arena.acquire("mcf", 7, 2, 8_MiB, 1'000, profiles, 2);
    const auto a2 =
        arena.acquire("mcf", 7, 2, 8_MiB, 1'000, profiles, 2);
    EXPECT_EQ(a.get(), a2.get()); // same immutable set, not a copy

    // Every key component is significant.
    arena.acquire("mcf", 8, 2, 8_MiB, 1'000, profiles, 2);   // seed
    arena.acquire("mcf", 7, 2, 16_MiB, 1'000, profiles, 2);  // capacity
    arena.acquire("mcf", 7, 2, 8_MiB, 2'000, profiles, 2);   // length

    const TraceArena::Stats s = arena.stats();
    EXPECT_EQ(s.generations, 4u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 4u);
    EXPECT_GT(s.resident_bytes, 0u);
}

TEST(TraceArena, LruEvictionUnderByteBudget)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    arena.setByteBudget(512_MiB);
    const auto profiles = rateProfiles("milc", 2);
    const auto get = [&](std::uint64_t seed) {
        return arena.acquire("milc", seed, 2, 8_MiB, 2'000, profiles, 2);
    };

    get(1); // A
    get(2); // B
    const std::uint64_t two_sets = arena.stats().resident_bytes;
    // Room for two-and-a-half sets: the third insert must evict the
    // least-recently-used one.
    arena.setByteBudget(two_sets + two_sets / 4);

    get(1); // touch A so B is the LRU entry
    get(3); // C: evicts B
    EXPECT_EQ(arena.stats().evictions, 1u);
    EXPECT_EQ(arena.stats().entries, 2u);

    const std::uint64_t gens_before = arena.stats().generations;
    get(1); // still resident
    get(3); // still resident
    EXPECT_EQ(arena.stats().generations, gens_before);
    get(2); // was evicted: regenerated
    EXPECT_EQ(arena.stats().generations, gens_before + 1);
}

/**
 * Budget-driven evictions are journalled as `arena` `evict` records
 * carrying the evicted stream's key and size, and the timeline merge
 * draws them as instant markers ("ph":"i"), so an arena thrash shows
 * up right next to the regeneration spans it causes.
 */
TEST(TraceArena, EvictionEmitsInstantTraceEvent)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("dice_arena_evict." + std::to_string(::getpid()));
    fs::remove_all(dir);
    SweepJournal &journal = SweepJournal::instance();
    ASSERT_TRUE(journal.open(dir, "serial"));

    TraceArena &arena = TraceArena::instance();
    arena.clear();
    arena.setByteBudget(512_MiB);
    const auto profiles = rateProfiles("milc", 2);
    const auto get = [&](std::uint64_t seed) {
        return arena.acquire("milc", seed, 2, 8_MiB, 2'000, profiles, 2);
    };
    get(1);
    get(2);
    const std::uint64_t two_sets = arena.stats().resident_bytes;
    arena.setByteBudget(two_sets - 1); // forces one eviction now
    EXPECT_EQ(arena.stats().evictions, 1u);
    journal.close();

    // The journal names the least recently used stream and its size.
    ParticipantJournal record;
    ASSERT_TRUE(readJournal(dir / "serial.jsonl", record));
    std::size_t evict_records = 0;
    for (const JournalEvent &e : record.events) {
        if (e.ev != "arena" || e.op != "evict")
            continue;
        ++evict_records;
        EXPECT_EQ(e.key, "milc.s1");
        EXPECT_GT(e.bytes, 0u);
    }
    EXPECT_EQ(evict_records, 1u);

    ASSERT_TRUE(mergeSweepTimeline(dir, dir / "timeline.json"));
    std::ifstream in(dir / "timeline.json");
    std::stringstream ss;
    ss << in.rdbuf();
    auto doc = testjson::parse(ss.str());
    fs::remove_all(dir);

    bool saw_evict = false;
    for (const auto &ev : doc->at("traceEvents").array) {
        if (ev->at("name").string != "evict")
            continue;
        saw_evict = true;
        EXPECT_EQ(ev->at("ph").string, "i");
        EXPECT_EQ(ev->at("s").string, "t");
        EXPECT_EQ(ev->at("cat").string, "arena");
        EXPECT_EQ(ev->at("args").at("key").string, "milc.s1");
        EXPECT_GT(ev->at("args").at("bytes").number, 0.0);
        EXPECT_FALSE(ev->has("dur"));
    }
    EXPECT_TRUE(saw_evict);
}

/**
 * The sweep-level contract (and the CI hook for it): with the
 * persistent result cache disabled, a two-organization sweep still
 * generates each (workload, seed) reference stream exactly once — the
 * second organization column replays the arena's copy.
 */
TEST(TraceArena, ColdSweepGeneratesEachStreamOnce)
{
    setenv("DICE_BENCH_NO_CACHE", "1", 1);
    setenv("DICE_BENCH_REFS", "1200", 1);
    setenv("DICE_BENCH_JOBS", "4", 1);

    TraceArena &arena = TraceArena::instance();
    arena.clear();
    arena.setByteBudget(512_MiB);

    const std::vector<std::string> workloads = {bench::rateNames()[0],
                                                bench::rateNames()[1]};
    const SystemConfig base =
        bench::configureBaseline(bench::defaultBase());
    const SystemConfig dice_cfg = bench::configureDice(bench::defaultBase());
    bench::runSweep(workloads,
                    {{base, "arena:base"}, {dice_cfg, "arena:dice"}});

    const TraceArena::Stats s = arena.stats();
    // 4 cells asked for 2 distinct streams: one generation per stream,
    // every other request served from the arena.
    EXPECT_EQ(s.generations, workloads.size());
    EXPECT_EQ(s.hits, workloads.size());
    unsetenv("DICE_BENCH_NO_CACHE");
    unsetenv("DICE_BENCH_REFS");
    unsetenv("DICE_BENCH_JOBS");
}

/** Files directly under @p dir with extension @p ext. */
std::size_t
countFiles(const std::filesystem::path &dir, const std::string &ext)
{
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        n += entry.path().extension() == ext ? 1 : 0;
    return n;
}

/**
 * DICE_BENCH_NO_CACHE follows the one flag rule: "0" is off, so a
 * sweep still writes its result file.
 */
TEST(TraceArena, NoCacheZeroKeepsTheResultCache)
{
    const std::filesystem::path cache =
        std::filesystem::temp_directory_path() /
        ("dice_no_cache_zero." + std::to_string(::getpid()));
    std::filesystem::remove_all(cache);
    setenv("DICE_BENCH_NO_CACHE", "0", 1);
    setenv("DICE_BENCH_CACHE_DIR", cache.c_str(), 1);
    setenv("DICE_BENCH_REFS", "1000", 1);
    setenv("DICE_BENCH_JOBS", "2", 1);

    const SystemConfig base =
        bench::configureBaseline(bench::defaultBase());
    bench::runSweep({bench::rateNames()[2]}, {{base, "nocache0:base"}});

    EXPECT_EQ(countFiles(cache, ".result"), 1u);
    std::filesystem::remove_all(cache);
    unsetenv("DICE_BENCH_NO_CACHE");
    unsetenv("DICE_BENCH_CACHE_DIR");
    unsetenv("DICE_BENCH_REFS");
    unsetenv("DICE_BENCH_JOBS");
}

} // namespace
} // namespace dice
