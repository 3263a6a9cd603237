/**
 * @file
 * Tests of the knob table: its rows, each parse rule (a malformed
 * value warns once and reads as the default), the per-call re-read,
 * and the cache-location accessors the result cache and the arena
 * store share.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "common/knobs.hpp"
#include "common/log.hpp"

namespace dice
{
namespace
{

/** Number of lines in @p text that mention @p needle. */
std::size_t
linesMentioning(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (text.substr(start, end - start).find(needle) !=
            std::string::npos)
            ++n;
        start = end + 1;
    }
    return n;
}

TEST(Knobs, TableHasThirteenDistinctRowsWhoseDefaultsParse)
{
    const auto &table = knobTable();
    ASSERT_EQ(table.size(), 13u);
    std::set<std::string> names;
    for (const KnobSpec &s : table) {
        EXPECT_EQ(std::string(s.name).rfind("DICE_", 0), 0u) << s.name;
        EXPECT_TRUE(names.insert(s.name).second) << s.name;
        EXPECT_NE(std::string(s.doc), "") << s.name;
        unsetenv(s.name);
    }
    // Unset, every knob reads as its default, rendered in its own
    // syntax; "ncpu" resolves to the hardware thread count.
    testing::internal::CaptureStderr();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Knob k = static_cast<Knob>(i);
        if (k == Knob::BenchJobs)
            continue;
        EXPECT_EQ(knobValue(k), table[i].fallback) << table[i].name;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(knobCount(Knob::BenchJobs), hw != 0 ? hw : 1u);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Knobs, AccessorsRereadTheEnvironment)
{
    unsetenv("DICE_STATS_JSON");
    unsetenv("DICE_STATS_INTERVAL");
    unsetenv("DICE_DECISION_TRACE");
    unsetenv("DICE_PROGRESS");
    EXPECT_EQ(knobText(Knob::StatsJson), "");
    EXPECT_EQ(knobCount(Knob::StatsInterval), 0u);
    EXPECT_FALSE(knobFlag(Knob::DecisionTrace));
    EXPECT_FALSE(knobFlag(Knob::Progress));

    setenv("DICE_STATS_JSON", "/tmp/stats", 1);
    setenv("DICE_STATS_INTERVAL", "5000", 1);
    setenv("DICE_DECISION_TRACE", "1", 1);
    setenv("DICE_PROGRESS", "1", 1);
    EXPECT_EQ(knobText(Knob::StatsJson), "/tmp/stats");
    EXPECT_EQ(knobCount(Knob::StatsInterval), 5000u);
    EXPECT_TRUE(knobFlag(Knob::DecisionTrace));
    EXPECT_TRUE(knobFlag(Knob::Progress));

    unsetenv("DICE_STATS_JSON");
    unsetenv("DICE_STATS_INTERVAL");
    unsetenv("DICE_DECISION_TRACE");
    unsetenv("DICE_PROGRESS");
}

TEST(Knobs, FlagIsOffWhenUnsetEmptyOrZero)
{
    setenv("DICE_BENCH_CACHE_DIR", "/tmp/dice_knob_cache", 1);
    for (const char *off : {"", "0"}) {
        setenv("DICE_BENCH_NO_CACHE", off, 1);
        EXPECT_FALSE(knobFlag(Knob::BenchNoCache)) << '"' << off << '"';
        EXPECT_EQ(benchCacheDir(), "/tmp/dice_knob_cache");
    }
    unsetenv("DICE_BENCH_NO_CACHE");
    EXPECT_FALSE(knobFlag(Knob::BenchNoCache));

    // Any other value is on, and turns the result cache off.
    for (const char *on : {"1", "yes"}) {
        setenv("DICE_BENCH_NO_CACHE", on, 1);
        EXPECT_TRUE(knobFlag(Knob::BenchNoCache)) << on;
        EXPECT_EQ(benchCacheDir(), "");
    }
    unsetenv("DICE_BENCH_NO_CACHE");

    unsetenv("DICE_BENCH_CACHE_DIR");
    EXPECT_EQ(benchCacheDir(), "bench_cache");
}

TEST(Knobs, CountTakesWholeNumbersFromOne)
{
    setenv("DICE_LOG_LEVEL", "warn", 1);
    setenv("DICE_BENCH_REFS", "1200", 1);
    EXPECT_EQ(knobCount(Knob::BenchRefs), 1200u);

    testing::internal::CaptureStderr();
    for (const char *bad : {"abc", "5k", "0", "-3", " 7", "1.5", "ncpu",
                            "99999999999999999999999"}) {
        setenv("DICE_BENCH_REFS", bad, 1);
        EXPECT_EQ(knobCount(Knob::BenchRefs), 40'000u) << bad;
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(linesMentioning(err, "DICE_BENCH_REFS"), 1u) << err;
    EXPECT_NE(err.find("DICE_BENCH_REFS=abc"), std::string::npos) << err;
    unsetenv("DICE_BENCH_REFS");
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Knobs, WholeTakesZero)
{
    setenv("DICE_LOG_LEVEL", "warn", 1);
    testing::internal::CaptureStderr();
    setenv("DICE_STATS_INTERVAL", "0", 1);
    EXPECT_EQ(knobCount(Knob::StatsInterval), 0u);
    setenv("DICE_STATS_INTERVAL", "600", 1);
    EXPECT_EQ(knobCount(Knob::StatsInterval), 600u);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    testing::internal::CaptureStderr();
    for (const char *bad : {"5k", "-1", "x"}) {
        setenv("DICE_STATS_INTERVAL", bad, 1);
        EXPECT_EQ(knobCount(Knob::StatsInterval), 0u) << bad;
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(linesMentioning(err, "DICE_STATS_INTERVAL"), 1u) << err;
    EXPECT_NE(err.find("DICE_STATS_INTERVAL=5k"), std::string::npos)
        << err;
    unsetenv("DICE_STATS_INTERVAL");
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Knobs, RealTakesPositiveReals)
{
    setenv("DICE_LOG_LEVEL", "warn", 1);
    setenv("DICE_SWEEP_STRAGGLER_K", "0.01", 1);
    EXPECT_EQ(knobReal(Knob::SweepStragglerK), 0.01);
    EXPECT_EQ(knobValue(Knob::SweepStragglerK), "0.01");
    setenv("DICE_SWEEP_STRAGGLER_K", "2.5", 1);
    EXPECT_EQ(knobReal(Knob::SweepStragglerK), 2.5);

    testing::internal::CaptureStderr();
    for (const char *bad : {"0", "-1", "x", "4x", "inf", "nan"}) {
        setenv("DICE_SWEEP_STRAGGLER_K", bad, 1);
        EXPECT_EQ(knobReal(Knob::SweepStragglerK), 4.0) << bad;
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(linesMentioning(err, "DICE_SWEEP_STRAGGLER_K"), 1u) << err;
    unsetenv("DICE_SWEEP_STRAGGLER_K");
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Knobs, MalformedLevelWarnsOnceOnItsOwn)
{
    // dice_warn reads DICE_LOG_LEVEL, so a malformed level reports
    // itself straight to stderr, once, and reads as warn.
    setenv("DICE_LOG_LEVEL", "nonsense", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(linesMentioning(err, "DICE_LOG_LEVEL"), 1u) << err;
    EXPECT_EQ(err.rfind("warn: DICE_LOG_LEVEL=nonsense", 0), 0u) << err;

    setenv("DICE_LOG_LEVEL", "1", 1);
    EXPECT_EQ(knobValue(Knob::LogLevel), "warn");
    setenv("DICE_LOG_LEVEL", "debug", 1);
    EXPECT_EQ(knobValue(Knob::LogLevel), "debug");
    unsetenv("DICE_LOG_LEVEL");
}

TEST(Knobs, SplitListDropsEmptyItems)
{
    EXPECT_EQ(splitList(""), std::vector<std::string>{});
    EXPECT_EQ(splitList("mcf"), std::vector<std::string>{"mcf"});
    EXPECT_EQ(splitList(",banshee,,touche,"),
              (std::vector<std::string>{"banshee", "touche"}));
}

} // namespace
} // namespace dice
