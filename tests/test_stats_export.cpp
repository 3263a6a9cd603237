/**
 * @file
 * End-to-end observability tests through the bench harness: a sweep
 * run with DICE_STATS_JSON / DICE_STATS_CSV must leave one valid,
 * complete stats document per fresh cell, a serial sweep with
 * DICE_SWEEP_RESULTS must merge its journal into a Perfetto-loadable
 * timeline with every cell's phases nested on one thread lane, and
 * DICE_PROGRESS must produce the heartbeat line.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/sweep_events.hpp"
#include "common/telemetry.hpp"
#include "harness.hpp"
#include "mini_json.hpp"

namespace dice::bench
{
namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Unique scratch dir under the system temp root; caller removes. */
fs::path
scratchDir(const std::string &stem)
{
    const fs::path dir = fs::temp_directory_path() /
                         (stem + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    return dir;
}

/** Tiny-run environment shared by every test in this binary. */
class StatsExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Small fresh runs: the persistent cache is bypassed so every
        // cell actually simulates (a cache hit would skip the export).
        setenv("DICE_BENCH_REFS", "1200", 1);
        setenv("DICE_BENCH_NO_CACHE", "1", 1);
        setenv("DICE_BENCH_JOBS", "2", 1);
    }

    void
    TearDown() override
    {
        unsetenv("DICE_STATS_JSON");
        unsetenv("DICE_STATS_CSV");
        unsetenv("DICE_STATS_INTERVAL");
        unsetenv("DICE_PROGRESS");
    }
};

TEST_F(StatsExportTest, SweepWritesOneValidJsonPerCell)
{
    const fs::path dir = scratchDir("dice_stats_json");
    setenv("DICE_STATS_JSON", dir.c_str(), 1);
    setenv("DICE_STATS_CSV", dir.c_str(), 1);
    // Half-run snapshots: every cell gets at least one warmup and one
    // measurement interval at this refs budget.
    setenv("DICE_STATS_INTERVAL", "600", 1);

    const std::vector<std::string> workloads = {rateNames()[0],
                                                mixNames()[0]};
    const SystemConfig base = defaultBase();
    const std::vector<OrgCell> orgs = {
        {configureBaseline(base), "sx_base"},
        {configureDice(base), "sx_dice"},
    };
    runSweep(workloads, orgs);

    for (const std::string &workload : workloads) {
        for (const OrgCell &org : orgs) {
            const std::string stem =
                sanitizeFileStem(workload + "_" + org.cache_key);
            const fs::path json_path = dir / (stem + ".json");
            ASSERT_TRUE(fs::exists(json_path)) << json_path;

            auto doc = testjson::parse(slurp(json_path));
            const auto &groups = doc->at("groups");

            // Core groups every organization must export.
            for (const char *g :
                 {"system", "l3", "l4", "l4.dram", "mapi", "mem.dram",
                  "trace_arena"})
                EXPECT_TRUE(groups.has(g)) << stem << " missing " << g;

            EXPECT_GT(groups.at("system").at("refs").number, 0.0);

            // Arena counters: these cells replayed arena streams.
            const auto &arena = groups.at("trace_arena");
            EXPECT_TRUE(arena.has("hits"));
            EXPECT_TRUE(arena.has("evictions"));
            EXPECT_GT(arena.at("resident_bytes").number, 0.0);

            // The DICE organization additionally exports CIP accuracy
            // and the BAI/TSI install mix; the baseline must not.
            if (org.cache_key == "sx_dice") {
                ASSERT_TRUE(groups.has("cip")) << stem;
                const double acc =
                    groups.at("cip").at("read_accuracy").number;
                EXPECT_GE(acc, 0.0);
                EXPECT_LE(acc, 1.0);
                const auto &l4 = groups.at("l4");
                const double installs =
                    l4.at("installs_bai").number +
                    l4.at("installs_tsi").number +
                    l4.at("installs_invariant").number;
                EXPECT_GT(installs, 0.0);
            } else {
                EXPECT_FALSE(groups.has("cip")) << stem;
            }

            // Interval snapshots: labels cover both phases, refs are
            // strictly increasing.
            const auto &ivs = doc->at("intervals");
            ASSERT_GE(ivs.array.size(), 2u) << stem;
            double prev = 0.0;
            bool saw_warmup = false, saw_measure = false;
            for (const auto &iv : ivs.array) {
                EXPECT_GT(iv->at("refs").number, prev);
                prev = iv->at("refs").number;
                const std::string &label = iv->at("label").string;
                saw_warmup |= label == "warmup";
                saw_measure |= label == "measure";
            }
            EXPECT_TRUE(saw_warmup) << stem;
            EXPECT_TRUE(saw_measure) << stem;

            // The CSV twin exists and has the expected header.
            const std::string csv = slurp(dir / (stem + ".csv"));
            EXPECT_EQ(csv.rfind("scope,refs,stat,value", 0), 0u);
            EXPECT_NE(csv.find("final,"), std::string::npos);
        }
    }

    fs::remove_all(dir);
}

TEST_F(StatsExportTest, SweepEmitsAPerfettoLoadableTrace)
{
    const fs::path results = scratchDir("dice_sweep_timeline");
    setenv("DICE_SWEEP_RESULTS", results.c_str(), 1);

    const std::vector<std::string> workloads = {rateNames()[1],
                                                gapNames()[1]};
    const SystemConfig base = defaultBase();
    const std::vector<OrgCell> orgs = {
        {configureBaseline(base), "sx_trace_base"},
        {configureDice(base), "sx_trace"},
    };
    runSweep(workloads, orgs);
    SweepJournal::instance().close();
    unsetenv("DICE_SWEEP_RESULTS");

    // The serial run merged its journal into a loadable timeline.
    auto doc = testjson::parse(slurp(results / "timeline.json"));
    fs::remove_all(results);
    EXPECT_EQ(doc->at("displayTimeUnit").string, "ms");
    const auto &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    struct Span
    {
        double pid, tid, ts, end;
    };
    std::map<std::pair<std::string, std::string>, std::vector<Span>>
        spans; // (phase, cell) -> spans
    for (const auto &ev : events.array) {
        // Spans are "X"; point markers (claims, arena traffic) are
        // "i"; lane names are "M".
        const std::string &ph = ev->at("ph").string;
        EXPECT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
        if (ph != "X")
            continue;
        EXPECT_EQ(ev->at("cat").string, "phase");
        const double ts = ev->at("ts").number;
        spans[{ev->at("name").string, ev->at("args").at("cell").string}]
            .push_back({ev->at("pid").number, ev->at("tid").number, ts,
                        ts + ev->at("dur").number});
    }

    // Every fresh cell draws its phases as one stack on one thread
    // lane: generate, simulate and export inside the cell, and the
    // System's warmup and measure inside simulate.
    for (const std::string &workload : workloads) {
        for (const OrgCell &org : orgs) {
            const std::string stem =
                sanitizeFileStem(workload + "_" + org.cache_key);
            const auto only = [&](const char *phase) {
                const std::vector<Span> &v = spans[{phase, stem}];
                EXPECT_EQ(v.size(), 1u) << phase << " of " << stem;
                return v.empty() ? Span{-1, -1, 0, 0} : v.front();
            };
            const auto expectInside = [&](const Span &outer,
                                          const char *phase) {
                const Span s = only(phase);
                EXPECT_EQ(s.pid, outer.pid) << phase << " of " << stem;
                EXPECT_EQ(s.tid, outer.tid) << phase << " of " << stem;
                EXPECT_GE(s.ts, outer.ts) << phase << " of " << stem;
                EXPECT_LE(s.end, outer.end) << phase << " of " << stem;
            };
            const Span cell = only("cell");
            expectInside(cell, "generate");
            expectInside(cell, "simulate");
            expectInside(cell, "export");
            const Span simulate = only("simulate");
            expectInside(simulate, "warmup");
            expectInside(simulate, "measure");
        }
    }
}

TEST_F(StatsExportTest, ProgressHeartbeatReportsEveryCell)
{
    setenv("DICE_PROGRESS", "1", 1);

    testing::internal::CaptureStderr();
    const SystemConfig base = defaultBase();
    runSweep({rateNames()[2], gapNames()[0]},
             {{configureBaseline(base), "sx_prog"}});
    const std::string err = testing::internal::GetCapturedStderr();

    // One heartbeat per completed cell, ending at 2/2; the [sim]
    // announcement yields to the heartbeat.
    EXPECT_NE(err.find("[progress] 1/2 cells"), std::string::npos) << err;
    EXPECT_NE(err.find("[progress] 2/2 cells"), std::string::npos) << err;
    EXPECT_NE(err.find("arena"), std::string::npos);
    EXPECT_EQ(err.find("[sim]"), std::string::npos);
}

} // namespace
} // namespace dice::bench
