/**
 * @file
 * Tests of the observability layer: decision-ring wrap semantics, the
 * StatRegistry (duplicate detection, interval snapshots, JSON/CSV
 * export round-tripped through a real parser), level-filtered
 * thread-safe logging, and the CIP / DICE install decision traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/log.hpp"
#include "common/ring_trace.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "core/cip.hpp"
#include "core/compressed.hpp"
#include "core/data_source.hpp"
#include "mini_json.hpp"

namespace dice
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

/** Unique temp path; removed by the caller. */
fs::path
tempPath(const std::string &stem)
{
    return fs::temp_directory_path() /
           (stem + "." + std::to_string(::getpid()) + ".tmp");
}

// ---------------------------------------------------------------------
// DecisionRing

TEST(DecisionRing, FillsInOrderBeforeWrapping)
{
    DecisionRing<int, 4> ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 4u);

    ring.push(10);
    ring.push(11);
    ring.push(12);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushes(), 3u);
    EXPECT_EQ(ring.at(0), 10);
    EXPECT_EQ(ring.at(1), 11);
    EXPECT_EQ(ring.at(2), 12);
}

TEST(DecisionRing, WrapKeepsTheNewestWindowOldestFirst)
{
    DecisionRing<int, 4> ring;
    for (int i = 0; i < 10; ++i)
        ring.push(i);

    // 10 pushes through 4 slots: 6..9 survive, oldest first.
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushes(), 10u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i), static_cast<int>(6 + i));

    std::vector<int> seen;
    ring.forEach([&seen](int v) { seen.push_back(v); });
    EXPECT_EQ(seen, (std::vector<int>{6, 7, 8, 9}));
}

TEST(DecisionRing, WrapBoundaryExactlyFull)
{
    DecisionRing<int, 3> ring;
    ring.push(1);
    ring.push(2);
    ring.push(3); // exactly full, no wrap yet
    EXPECT_EQ(ring.at(0), 1);
    ring.push(4); // first overwrite
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.at(0), 2);
    EXPECT_EQ(ring.at(2), 4);
}

TEST(DecisionRing, ClearForgetsEverything)
{
    DecisionRing<int, 2> ring;
    ring.push(1);
    ring.push(2);
    ring.push(3);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.pushes(), 0u);
    ring.push(7);
    EXPECT_EQ(ring.at(0), 7);
}

TEST(DecisionRing, SingleSlotRingHoldsTheLatest)
{
    DecisionRing<int, 1> ring;
    ring.push(1);
    ring.push(2);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.at(0), 2);
}

// ---------------------------------------------------------------------
// StatGroup guards

TEST(StatsGuards, DuplicateStatNamePanics)
{
    StatGroup g("grp");
    Counter c;
    g.addCounter("hits", c);
    EXPECT_DEATH(g.addCounter("hits", c), "duplicate stat");
    EXPECT_DEATH(g.addFormula("hits", [] { return 0.0; }),
                 "duplicate stat");
}

// ---------------------------------------------------------------------
// StatRegistry

TEST(StatRegistry, DuplicatePathPanics)
{
    StatRegistry reg;
    reg.add("l4", [] { return StatGroup("l4"); });
    EXPECT_DEATH(reg.add("l4", [] { return StatGroup("l4"); }),
                 "duplicate");
}

TEST(StatRegistry, FlattenReadsLiveCounters)
{
    Counter hits;
    StatRegistry reg;
    reg.add("l4", [&hits] {
        StatGroup g("l4");
        g.addCounter("hits", hits);
        return g;
    });

    ++hits;
    auto rows = reg.flatten();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].first, "l4.hits");
    EXPECT_EQ(rows[0].second, 1.0);

    // Providers re-materialize the group, so later reads see updates.
    ++hits;
    EXPECT_EQ(reg.flatten()[0].second, 2.0);
}

TEST(StatRegistry, JsonRoundTripMatchesGroupGet)
{
    Counter reads;
    reads += 41;
    ++reads;

    StatRegistry reg;
    reg.add("l4", [&reads] {
        StatGroup g("l4");
        g.addCounter("reads", reads);
        g.addFormula("hit_rate", [] { return 0.75; });
        return g;
    });
    reg.add("cip", [] {
        StatGroup g("cip");
        g.addFormula("accuracy", [] { return 0.5; });
        // Needs the quote/backslash escaping path in the emitter.
        g.addFormula("odd\"name\\here", [] { return 1.0; });
        // NaN must serialize as null, never as bare nan.
        g.addFormula("undefined",
                     [] { return std::nan(""); });
        return g;
    });

    const std::string json = reg.toJson();
    auto doc = testjson::parse(json);

    const auto &groups = doc->at("groups");
    const auto &l4 = groups.at("l4");
    // Every exported value must equal what StatGroup::get reports.
    StatGroup live("l4");
    live.addCounter("reads", reads);
    live.addFormula("hit_rate", [] { return 0.75; });
    EXPECT_EQ(l4.at("reads").number, live.get("reads"));
    EXPECT_EQ(l4.at("hit_rate").number, live.get("hit_rate"));

    const auto &cip = groups.at("cip");
    EXPECT_EQ(cip.at("accuracy").number, 0.5);
    EXPECT_EQ(cip.at("odd\"name\\here").number, 1.0);
    EXPECT_TRUE(cip.at("undefined").isNull());

    EXPECT_TRUE(doc->at("intervals").isArray());
    EXPECT_TRUE(doc->at("intervals").array.empty());
}

TEST(StatRegistry, IntervalSnapshotsAreMonotonicAndFrozen)
{
    Counter refs;
    StatRegistry reg;
    reg.add("sys", [&refs] {
        StatGroup g("sys");
        g.addCounter("refs", refs);
        return g;
    });

    refs += 100;
    reg.captureInterval("warmup", 100);
    refs += 150;
    reg.captureInterval("measure", 250);
    refs += 1;

    const auto &ivs = reg.intervals();
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0].label, "warmup");
    EXPECT_EQ(ivs[1].label, "measure");
    EXPECT_LT(ivs[0].refs, ivs[1].refs);
    // A snapshot is a copy of the values at capture time; later counter
    // bumps must not leak into it.
    EXPECT_EQ(ivs[0].values[0].second, 100.0);
    EXPECT_EQ(ivs[1].values[0].second, 250.0);
    EXPECT_EQ(reg.flatten()[0].second, 251.0);

    // And they round-trip through the JSON export.
    auto doc = testjson::parse(reg.toJson());
    const auto &jiv = doc->at("intervals");
    ASSERT_EQ(jiv.array.size(), 2u);
    EXPECT_EQ(jiv.array[0]->at("label").string, "warmup");
    EXPECT_EQ(jiv.array[0]->at("refs").number, 100.0);
    EXPECT_EQ(jiv.array[1]->at("refs").number, 250.0);
    EXPECT_EQ(jiv.array[0]->at("values").at("sys.refs").number, 100.0);
}

TEST(StatRegistry, IntervalDeltasDifferenceConsecutiveSnapshots)
{
    Counter refs;
    Counter hits;
    StatRegistry reg;
    reg.add("sys", [&refs, &hits] {
        StatGroup g("sys");
        g.addCounter("refs", refs);
        g.addCounter("hits", hits);
        return g;
    });

    refs += 100;
    hits += 30;
    reg.captureInterval("warmup", 100);
    refs += 150;
    hits += 20;
    reg.captureInterval("measure", 250);

    // First interval differences against zero; later ones against the
    // immediately preceding snapshot.
    const auto d0 = reg.intervalDeltas(0);
    const auto d1 = reg.intervalDeltas(1);
    ASSERT_EQ(d0.size(), 2u);
    EXPECT_EQ(d0[0].first, "sys.refs");
    EXPECT_EQ(d0[0].second, 100.0);
    EXPECT_EQ(d0[1].second, 30.0);
    EXPECT_EQ(d1[0].second, 150.0);
    EXPECT_EQ(d1[1].second, 20.0);

    // JSON: every interval carries a "deltas" object alongside the
    // cumulative "values".
    auto doc = testjson::parse(reg.toJson());
    const auto &jiv = doc->at("intervals");
    ASSERT_EQ(jiv.array.size(), 2u);
    EXPECT_EQ(jiv.array[0]->at("deltas").at("sys.refs").number, 100.0);
    EXPECT_EQ(jiv.array[1]->at("deltas").at("sys.refs").number, 150.0);
    EXPECT_EQ(jiv.array[1]->at("deltas").at("sys.hits").number, 20.0);
    EXPECT_EQ(jiv.array[1]->at("values").at("sys.refs").number, 250.0);

    // CSV: "<name>.delta" rows scoped to the interval's label/refs.
    const std::string csv = reg.toCsv();
    EXPECT_NE(csv.find("warmup,100,sys.refs.delta,100"),
              std::string::npos);
    EXPECT_NE(csv.find("measure,250,sys.refs.delta,150"),
              std::string::npos);
    EXPECT_NE(csv.find("measure,250,sys.hits.delta,20"),
              std::string::npos);
}

TEST(StatRegistry, CsvHasHeaderFinalRowsAndIntervalRows)
{
    Counter c;
    c += 3;
    StatRegistry reg;
    reg.add("g", [&c] {
        StatGroup g("g");
        g.addCounter("count", c);
        return g;
    });
    reg.captureInterval("warmup", 10);

    const std::string csv = reg.toCsv();
    std::istringstream in(csv);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);

    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines[0], "scope,refs,stat,value");
    EXPECT_NE(csv.find("warmup,10,g.count,3"), std::string::npos);
    EXPECT_NE(csv.find("final,"), std::string::npos);
}

TEST(StatRegistry, WriteJsonCreatesAParsableFile)
{
    StatRegistry reg;
    reg.add("g", [] {
        StatGroup g("g");
        g.addFormula("one", [] { return 1.0; });
        return g;
    });
    const fs::path path = tempPath("dice_reg");
    ASSERT_TRUE(reg.writeJson(path.string()));
    auto doc = testjson::parse(slurp(path));
    EXPECT_EQ(doc->at("groups").at("g").at("one").number, 1.0);
    fs::remove(path);

    EXPECT_FALSE(reg.writeJson("/nonexistent-dir/x/y.json"));
}

TEST(Telemetry, EnvKnobsAreReadPerCall)
{
    unsetenv("DICE_STATS_JSON");
    unsetenv("DICE_STATS_INTERVAL");
    unsetenv("DICE_DECISION_TRACE");
    unsetenv("DICE_PROGRESS");
    EXPECT_EQ(statsJsonDir(), "");
    EXPECT_EQ(statsIntervalRefs(), 0u);
    EXPECT_FALSE(decisionTraceEnabled());
    EXPECT_FALSE(progressEnabled());

    setenv("DICE_STATS_JSON", "/tmp/stats", 1);
    setenv("DICE_STATS_INTERVAL", "5000", 1);
    setenv("DICE_DECISION_TRACE", "1", 1);
    setenv("DICE_PROGRESS", "1", 1);
    EXPECT_EQ(statsJsonDir(), "/tmp/stats");
    EXPECT_EQ(statsIntervalRefs(), 5000u);
    EXPECT_TRUE(decisionTraceEnabled());
    EXPECT_TRUE(progressEnabled());

    unsetenv("DICE_STATS_JSON");
    unsetenv("DICE_STATS_INTERVAL");
    unsetenv("DICE_DECISION_TRACE");
    unsetenv("DICE_PROGRESS");
}

TEST(Telemetry, SanitizeFileStem)
{
    EXPECT_EQ(sanitizeFileStem("mix3_dice-2x.v1"), "mix3_dice-2x.v1");
    EXPECT_EQ(sanitizeFileStem("a/b:c d"), "a_b_c_d");
    EXPECT_EQ(sanitizeFileStem(""), "unnamed");
}

// ---------------------------------------------------------------------
// Logging (satellite: thread safety + level filter)

TEST(Log, LevelParsing)
{
    unsetenv("DICE_LOG_LEVEL");
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setenv("DICE_LOG_LEVEL", "quiet", 1);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setenv("DICE_LOG_LEVEL", "0", 1);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setenv("DICE_LOG_LEVEL", "debug", 1);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setenv("DICE_LOG_LEVEL", "2", 1);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setenv("DICE_LOG_LEVEL", "warn", 1);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setenv("DICE_LOG_LEVEL", "nonsense", 1);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Log, WarnIsSuppressedWhenQuietAndDebugNeedsDebug)
{
    setenv("DICE_LOG_LEVEL", "quiet", 1);
    testing::internal::CaptureStderr();
    dice_warn("should not appear");
    dice_debug("should not appear either");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    setenv("DICE_LOG_LEVEL", "warn", 1);
    testing::internal::CaptureStderr();
    dice_warn("warn visible %d", 7);
    dice_debug("debug hidden");
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn visible 7"), std::string::npos);
    EXPECT_EQ(out.find("debug hidden"), std::string::npos);

    setenv("DICE_LOG_LEVEL", "debug", 1);
    testing::internal::CaptureStderr();
    dice_debug("debug visible");
    out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("debug visible"), std::string::npos);
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Log, ParallelWarnsNeverInterleaveMidLine)
{
    setenv("DICE_LOG_LEVEL", "warn", 1);
    testing::internal::CaptureStderr();
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < 50; ++i)
                dice_warn("thread-%d-message-%d-end", t, i);
        });
    }
    for (auto &w : workers)
        w.join();
    const std::string out = testing::internal::GetCapturedStderr();
    unsetenv("DICE_LOG_LEVEL");

    // Every line that mentions a worker message must be a complete,
    // untorn "thread-T-message-I-end" record.
    std::istringstream in(out);
    std::string line;
    int complete = 0;
    while (std::getline(in, line)) {
        if (line.find("thread-") == std::string::npos)
            continue;
        EXPECT_NE(line.find("-end"), std::string::npos) << line;
        ++complete;
    }
    EXPECT_EQ(complete, 200);
}

// ---------------------------------------------------------------------
// CIP decision ring + burst dump

TEST(CipTrace, RingIsOffByDefaultAndOneBranchWhenOff)
{
    unsetenv("DICE_DECISION_TRACE");
    Cip cip(64);
    EXPECT_FALSE(cip.decisionTraceOn());
    cip.updateRead(1, IndexScheme::BAI);
    EXPECT_TRUE(cip.readRing().empty());
}

TEST(CipTrace, RingRecordsPredictedVsActual)
{
    Cip cip(64);
    cip.enableDecisionTrace(true);

    // Fresh LTT predicts TSI; feeding BAI is a scored misprediction.
    cip.updateRead(0x1000, IndexScheme::BAI);
    // Same page now predicts BAI; BAI again is a correct prediction.
    cip.updateRead(0x1001, IndexScheme::BAI);

    const auto &ring = cip.readRing();
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.at(0).line, 0x1000u);
    EXPECT_EQ(ring.at(0).predicted, IndexScheme::TSI);
    EXPECT_EQ(ring.at(0).actual, IndexScheme::BAI);
    EXPECT_EQ(ring.at(1).predicted, IndexScheme::BAI);
    EXPECT_EQ(ring.at(1).actual, IndexScheme::BAI);

    const std::string dump = cip.dumpReadRing();
    EXPECT_NE(dump.find("<-- miss"), std::string::npos);

    // Disabling clears all trace state.
    cip.enableDecisionTrace(false);
    EXPECT_TRUE(cip.readRing().empty());
}

TEST(CipTrace, MispredictionBurstTriggersOneDump)
{
    setenv("DICE_LOG_LEVEL", "warn", 1);
    Cip cip(64);
    cip.enableDecisionTrace(true);

    // Alternating actual schemes on one page defeat the last-time
    // predictor completely: every scored read is a misprediction.
    testing::internal::CaptureStderr();
    for (int i = 0; i < 130; ++i)
        cip.updateRead(0x2000,
                       i % 2 ? IndexScheme::BAI : IndexScheme::TSI);
    const std::string err = testing::internal::GetCapturedStderr();
    unsetenv("DICE_LOG_LEVEL");

    // 130 all-miss reads cover two full 64-read windows: one dump per
    // window, with the hysteresis preventing per-access dumping.
    EXPECT_EQ(cip.burstDumps(), 2u);
    EXPECT_NE(err.find("misprediction burst"), std::string::npos);
    EXPECT_EQ(cip.readRing().size(), 130u);
    EXPECT_EQ(cip.readRing().pushes(), 130u);
}

// ---------------------------------------------------------------------
// DICE install decision ring

CompressedCacheConfig
smallDiceConfig()
{
    CompressedCacheConfig cfg;
    cfg.base.capacity = 1_MiB;
    cfg.policy = CompressionPolicy::Dice;
    return cfg;
}

TEST(InstallTrace, RingRecordsSchemeSizeAndPairing)
{
    ZeroDataSource zeros;
    CompressedDramCache cache(smallDiceConfig(), zeros);
    cache.enableDecisionTrace(true);
    EXPECT_TRUE(cache.cipForTest().decisionTraceOn());

    // Zero lines compress far below the 36-B threshold, so installs
    // choose BAI whenever TSI and BAI differ; the even/odd neighbors
    // land as one shared-tag pair.
    Cycle now = 0;
    for (LineAddr line = 0; line < 32; ++line)
        cache.install(line, 0, false, now += 100, true);

    const auto &ring = cache.installRing();
    ASSERT_EQ(ring.size(), 32u);
    EXPECT_EQ(ring.pushes(), 32u);

    std::uint64_t paired = 0;
    ring.forEach([&paired](const InstallTrace &t) {
        // All-zero lines compress below the 36-B DICE threshold (the
        // codec encodes the zero line in metadata alone, size 0).
        EXPECT_LE(t.size_bytes, 36u);
        if (t.paired)
            ++paired;
    });
    EXPECT_EQ(paired, cache.pairInstalls());
    EXPECT_GT(paired, 0u);

    // The ring mirrors the install counters: every non-invariant
    // install of a zero line goes BAI.
    std::uint64_t bai = 0;
    ring.forEach([&bai](const InstallTrace &t) {
        if (!t.invariant && t.scheme == IndexScheme::BAI)
            ++bai;
    });
    EXPECT_EQ(bai, cache.installsBai());

    cache.enableDecisionTrace(false);
    EXPECT_TRUE(cache.installRing().empty());
    EXPECT_FALSE(cache.cipForTest().decisionTraceOn());
}

TEST(InstallTrace, OffByDefaultCostsNothing)
{
    ZeroDataSource zeros;
    unsetenv("DICE_DECISION_TRACE");
    CompressedDramCache cache(smallDiceConfig(), zeros);
    cache.install(1, 0, false, 100, true);
    EXPECT_TRUE(cache.installRing().empty());
}

} // namespace
} // namespace dice
