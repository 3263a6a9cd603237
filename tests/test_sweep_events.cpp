/**
 * @file
 * Distributed sweep observability under test: the mergeable
 * LogHistogram (exact cross-process merge is the property the sweep
 * summary rests on), the `sweep` stat-group export, the event-journal
 * line format, the journal fold every status consumer shares, and —
 * the centerpiece — the cross-participant timeline merge with skewed
 * wall clocks, asserted causally consistent and round-tripped through
 * the mini JSON parser like a real chrome://tracing load — and the
 * JournalSpans that draw each thread's phases on a lane of its own.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "common/sweep_events.hpp"
#include "mini_json.hpp"

namespace
{

using dice::JournalEvent;
using dice::LogHistogram;
using dice::ParticipantFold;
using dice::ParticipantJournal;
using dice::SweepMetrics;
using dice::SweepPhase;

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << path;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------
// LogHistogram.

TEST(LogHistogram, BucketEdges)
{
    EXPECT_EQ(LogHistogram::bucketIndex(0), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(1), 1u);
    EXPECT_EQ(LogHistogram::bucketIndex(2), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(3), 2u);
    EXPECT_EQ(LogHistogram::bucketIndex(4), 3u);
    EXPECT_EQ(LogHistogram::bucketIndex(~std::uint64_t{0}), 64u);

    // Every value lands in [lo, hi) of its own bucket.
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{7}, std::uint64_t{4096},
                            std::uint64_t{1} << 40}) {
        const std::uint32_t i = LogHistogram::bucketIndex(v);
        EXPECT_GE(v, LogHistogram::bucketLo(i)) << v;
        if (i < 64) {
            EXPECT_LT(v, LogHistogram::bucketHi(i)) << v;
        }
    }
}

TEST(LogHistogram, MergeEqualsConcatenatedSampling)
{
    // The distributed-sweep property: per-worker histograms merged at
    // the coordinator must be bit-identical to one histogram that saw
    // every sample. Fixed bucket edges make this exact, not approximate.
    std::vector<std::uint64_t> a = {0, 1, 3, 900, 17, 1 << 20};
    std::vector<std::uint64_t> b = {2, 2, 64, 4095, 5};

    LogHistogram ha, hb, all;
    for (std::uint64_t v : a) {
        ha.sample(v);
        all.sample(v);
    }
    for (std::uint64_t v : b) {
        hb.sample(v);
        all.sample(v);
    }
    LogHistogram merged = ha;
    merged.merge(hb);

    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.max(), all.max());
    EXPECT_EQ(merged.min(), all.min());
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i)
        EXPECT_EQ(merged.bucket(i), all.bucket(i)) << "bucket " << i;
    EXPECT_DOUBLE_EQ(merged.percentile(0.5), all.percentile(0.5));
}

TEST(LogHistogram, SubtractedIsolatesTheWindow)
{
    LogHistogram h;
    h.sample(10);
    h.sample(20);
    const LogHistogram since = h; // snapshot
    h.sample(100);
    h.sample(200);

    const LogHistogram delta = h.subtracted(since);
    EXPECT_EQ(delta.count(), 2u);
    EXPECT_EQ(delta.sum(), 300u);
    // min/max stay cumulative by design (upper bounds, merge-safe).
    EXPECT_EQ(delta.max(), 200u);
}

TEST(LogHistogram, PercentilesClampedToObservedRange)
{
    LogHistogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(10); // all in bucket [8, 16)
    // Interpolation may wander inside the bucket, but the clamp pins
    // single-valued distributions exactly.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);

    LogHistogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(0.9), 0.0);

    LogHistogram spread;
    for (int i = 0; i < 99; ++i)
        spread.sample(8);
    spread.sample(1 << 20);
    EXPECT_LT(spread.percentile(0.5), 16.0);
    EXPECT_GT(spread.percentile(0.999), 1000.0);
}

// ---------------------------------------------------------------------
// SweepMetrics.

TEST(SweepMetrics, SlowestCellAndSnapshots)
{
    SweepMetrics &m = SweepMetrics::instance();
    m.resetForTest();
    m.sample(SweepPhase::Generate, 100);
    for (const std::uint64_t us : {5000, 9000, 1000})
        m.sample(SweepPhase::Cell, us);

    // In-process, the slowest cell is the whole-cell histogram's max;
    // which cell it was comes from the journal fold (SweepFold tests).
    EXPECT_EQ(m.snapshot(SweepPhase::Cell).max(), 9000u);
    EXPECT_EQ(m.snapshot(SweepPhase::Cell).count(), 3u);
    EXPECT_EQ(m.snapshot(SweepPhase::Generate).count(), 1u);
    EXPECT_EQ(m.snapshot(SweepPhase::Simulate).count(), 0u);
    m.resetForTest();
}

TEST(SweepMetrics, StatGroupExportsEveryHistogramEntry)
{
    SweepMetrics &m = SweepMetrics::instance();
    m.resetForTest();
    LogHistogram want;
    for (const std::uint64_t us : {0, 5, 5, 70000}) {
        m.sample(SweepPhase::Cell, us);
        want.sample(us);
    }
    const dice::StatGroup g = m.statGroup();
    EXPECT_EQ(g.name(), "sweep");

    EXPECT_DOUBLE_EQ(g.get("cell_us.count"), 4.0);
    EXPECT_DOUBLE_EQ(g.get("cell_us.sum"), 70010.0);
    EXPECT_DOUBLE_EQ(g.get("cell_us.mean"), 70010.0 / 4);
    EXPECT_DOUBLE_EQ(g.get("cell_us.max"), 70000.0);
    EXPECT_DOUBLE_EQ(g.get("cell_us.p50"), want.percentile(0.50));
    EXPECT_DOUBLE_EQ(g.get("cell_us.p90"), want.percentile(0.90));
    EXPECT_DOUBLE_EQ(g.get("cell_us.p99"), want.percentile(0.99));

    // One lo/hi/count triple per non-empty bucket, with explicit
    // power-of-two edges: 0 -> bucket 0, 5 -> [4, 8), 70000 ->
    // [65536, 131072).
    const struct
    {
        int bucket;
        double lo, hi, count;
    } buckets[] = {{0, 0, 1, 1}, {3, 4, 8, 2}, {17, 65536, 131072, 1}};
    for (const auto &b : buckets) {
        const std::string prefix =
            "cell_us.bucket" + std::to_string(b.bucket);
        EXPECT_DOUBLE_EQ(g.get(prefix + ".lo"), b.lo) << prefix;
        EXPECT_DOUBLE_EQ(g.get(prefix + ".hi"), b.hi) << prefix;
        EXPECT_DOUBLE_EQ(g.get(prefix + ".count"), b.count) << prefix;
    }
    EXPECT_TRUE(std::isnan(g.get("cell_us.bucket1.count")));

    // Every phase exports its family, empty ones with zero counts and
    // no bucket entries: 7 summary entries each, plus 3 per bucket.
    for (unsigned i = 0; i < dice::kSweepPhases; ++i) {
        const std::string name =
            dice::sweepPhaseName(static_cast<SweepPhase>(i));
        EXPECT_FALSE(std::isnan(g.get(name + ".p99"))) << name;
    }
    EXPECT_DOUBLE_EQ(g.get("generate_us.count"), 0.0);
    EXPECT_EQ(g.size(), 7u * dice::kSweepPhases + 3u * 3u);
    m.resetForTest();
}

// ---------------------------------------------------------------------
// Journal line + file parsing.

TEST(SweepJournal, ParseJournalLine)
{
    JournalEvent e;
    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"claim","cell":"mcf_dice","stolen":1,"requeued":0,)"
        R"("wait_us":42,"wall_us":1000,"mono_us":7})",
        e));
    EXPECT_EQ(e.ev, "claim");
    EXPECT_EQ(e.cell, "mcf_dice");
    EXPECT_TRUE(e.stolen);
    EXPECT_FALSE(e.requeued);
    EXPECT_EQ(e.wait_us, 42u);
    EXPECT_EQ(e.mono_us, 7u);
    EXPECT_EQ(e.tid, 0u); // a record without a lane is lane 0

    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"arena","op":"evict","key":"mcf.s1","bytes":4096,)"
        R"("tid":3,"wall_us":1,"mono_us":2})",
        e));
    EXPECT_EQ(e.op, "evict");
    EXPECT_EQ(e.key, "mcf.s1");
    EXPECT_EQ(e.bytes, 4096u);
    EXPECT_EQ(e.tid, 3u);

    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"batch","batch":3,"cells":40,"jobs":4,)"
        R"("span_us":900,"wall_us":1,"mono_us":2})",
        e));
    EXPECT_EQ(e.batch, 3u);
    EXPECT_EQ(e.cells, 40u);
    EXPECT_EQ(e.jobs, 4u);
    EXPECT_EQ(e.span_us, 900u);

    // Escapes unescape; unknown keys are ignored (forward compat).
    ASSERT_TRUE(dice::parseJournalLine(
        R"({"ev":"mark","name":"spawn","detail":"a\"b","future":1})",
        e));
    EXPECT_EQ(e.detail, "a\"b");

    EXPECT_FALSE(dice::parseJournalLine("", e));
    EXPECT_FALSE(dice::parseJournalLine("not json", e));
    EXPECT_FALSE(dice::parseJournalLine(R"({"ev":)", e));
    EXPECT_FALSE(dice::parseJournalLine(R"({"cell":"x"})", e)); // no ev
}

TEST(SweepJournal, ReadJournalSegmentsAndTornTail)
{
    const auto dir = freshDir("dice_test_journal_read");
    const auto path = dir / "worker0.jsonl";
    // Two process runs (epochs) in one journal, one garbage line in
    // the middle, one torn line at the end (SIGKILL between write and
    // flush) — all of which a reader must survive.
    writeFile(
        path,
        R"({"ev":"epoch","participant":"worker0","pid":11,"host":"h1",)"
        R"("wall_us":1000000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":0,"requeued":0,)"
        R"("wait_us":1,"wall_us":1000500,"mono_us":500})"
        "\n"
        "garbage line\n"
        R"({"ev":"epoch","participant":"worker0","pid":12,"host":"h1",)"
        R"("wall_us":9000000,"mono_us":0})"
        "\n"
        R"({"ev":"publish","cell":"b","wall_us":9000100,"mono_us":100})"
        "\n"
        R"({"ev":"publish","cell":"c","wall)");

    ParticipantJournal p;
    ASSERT_TRUE(dice::readJournal(path, p));
    EXPECT_EQ(p.name, "worker0");
    EXPECT_EQ(p.host, "h1");
    ASSERT_EQ(p.segments.size(), 2u);
    EXPECT_EQ(p.segments[0].pid, 11);
    EXPECT_EQ(p.segments[1].pid, 12);
    ASSERT_EQ(p.events.size(), 2u);
    EXPECT_EQ(p.events[0].segment, 0);
    EXPECT_EQ(p.events[1].segment, 1);

    // No epoch record at all -> not a journal.
    writeFile(dir / "junk.jsonl", "{\"ev\":\"claim\",\"cell\":\"x\"}\n");
    ParticipantJournal q;
    EXPECT_FALSE(dice::readJournal(dir / "junk.jsonl", q));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Timeline merge with skewed clocks.

/**
 * Three participants whose wall clocks disagree wildly:
 *  - the coordinator (reference) spawns both workers and claims
 *    nothing itself;
 *  - worker0's clock runs ~0.5s behind: naive alignment would place
 *    its whole lane before it was spawned;
 *  - worker1's clock is ~0.9s behind AND it re-claims worker0's cell
 *    through a broken lease — the requeue must land after the first
 *    claim no matter what its wall clock says.
 */
std::filesystem::path
writeSkewedJournals()
{
    const auto dir = freshDir("dice_test_timeline_merge");
    const auto events = dir / "events";
    std::filesystem::create_directories(events);

    writeFile(
        events / "coordinator.jsonl",
        R"({"ev":"epoch","participant":"coordinator","pid":1,)"
        R"("host":"hub","wall_us":1000000,"mono_us":0})"
        "\n"
        R"({"ev":"mark","name":"spawn","detail":"worker0",)"
        R"("wall_us":1001000,"mono_us":1000})"
        "\n"
        R"({"ev":"mark","name":"spawn","detail":"worker1",)"
        R"("wall_us":1002000,"mono_us":2000})"
        "\n");

    // worker0: claims cell "a" (stolen), runs it, publishes, dies —
    // no release, journal just ends.
    writeFile(
        events / "worker0.jsonl",
        R"({"ev":"epoch","participant":"worker0","pid":2,)"
        R"("host":"h1","wall_us":500000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":1,"requeued":0,)"
        R"("wait_us":10,"wall_us":501000,"mono_us":1000})"
        "\n"
        R"({"ev":"phase","phase":"cell","cell":"a",)"
        R"("start_us":1000,"dur_us":40000,"wall_us":541000,)"
        R"("mono_us":41000})"
        "\n");

    // worker1: re-claims "a" after worker0's lease went stale.
    writeFile(
        events / "worker1.jsonl",
        R"({"ev":"epoch","participant":"worker1","pid":3,)"
        R"("host":"h2","wall_us":100000,"mono_us":0})"
        "\n"
        R"({"ev":"claim","cell":"a","stolen":1,"requeued":1,)"
        R"("wait_us":0,"wall_us":100500,"mono_us":500})"
        "\n"
        R"({"ev":"publish","cell":"a","wall_us":160500,)"
        R"("mono_us":60500})"
        "\n");
    return dir;
}

TEST(SweepTimeline, SkewedClocksMergeCausallyConsistent)
{
    const auto dir = writeSkewedJournals();
    const auto out = dir / "timeline.json";
    std::string error;
    dice::TimelineStats stats;
    ASSERT_TRUE(dice::mergeSweepTimeline(dir / "events", out, &error,
                                         &stats))
        << error;
    EXPECT_EQ(stats.participants, 3u);
    EXPECT_GT(stats.events, 0u);

    // Round-trip through the same parser the other telemetry tests
    // use: the merged document must be a loadable Chrome trace.
    const auto root = dice::testjson::parse(readFile(out));
    EXPECT_EQ(root->at("displayTimeUnit").string, "ms");
    const auto &events = root->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // Lane metadata names every participant; remember name -> pid.
    std::map<std::string, double> lane_pid;
    double spawn0_ts = -1, spawn1_ts = -1;
    double first_claim_ts = -1, requeue_ts = -1, publish_ts = -1;
    double phase_ts = -1, phase_dur = -1;
    for (const auto &ev : events.array) {
        ASSERT_TRUE(ev->isObject());
        const std::string name = ev->at("name").string;
        if (name == "process_name") {
            lane_pid[ev->at("args").at("name").string] =
                ev->at("pid").number;
            continue;
        }
        EXPECT_GE(ev->at("ts").number, 0.0); // normalized to t0 = 0
        if (name == "spawn" &&
            ev->at("args").at("detail").string == "worker0")
            spawn0_ts = ev->at("ts").number;
        if (name == "spawn" &&
            ev->at("args").at("detail").string == "worker1")
            spawn1_ts = ev->at("ts").number;
        if (name == "steal" && ev->at("args").at("cell").string == "a")
            first_claim_ts = ev->at("ts").number;
        if (name == "requeue" &&
            ev->at("args").at("cell").string == "a")
            requeue_ts = ev->at("ts").number;
        if (name == "publish" &&
            ev->at("args").at("cell").string == "a")
            publish_ts = ev->at("ts").number;
        if (name == "cell" && ev->at("ph").string == "X") {
            phase_ts = ev->at("ts").number;
            phase_dur = ev->at("dur").number;
        }
    }

    ASSERT_EQ(lane_pid.size(), 3u);
    EXPECT_TRUE(lane_pid.count("coordinator (hub)"));
    EXPECT_TRUE(lane_pid.count("worker0 (h1)"));
    EXPECT_TRUE(lane_pid.count("worker1 (h2)"));

    // Causal consistency despite both workers' wall clocks reading
    // *before* the coordinator's: spawns precede the spawned workers'
    // first events, and the requeued claim lands after the original.
    ASSERT_GE(spawn0_ts, 0);
    ASSERT_GE(spawn1_ts, 0);
    ASSERT_GE(first_claim_ts, 0);
    ASSERT_GE(requeue_ts, 0);
    ASSERT_GE(publish_ts, 0);
    EXPECT_GE(first_claim_ts, spawn0_ts);
    EXPECT_GE(requeue_ts, spawn1_ts);
    EXPECT_GE(requeue_ts, first_claim_ts);
    EXPECT_GE(publish_ts, requeue_ts);

    // The phase span made it through as a complete "X" event.
    EXPECT_GE(phase_ts, 0);
    EXPECT_DOUBLE_EQ(phase_dur, 40000.0);

    // Determinism: merging again yields the identical document.
    const std::string once = readFile(out);
    ASSERT_TRUE(
        dice::mergeSweepTimeline(dir / "events", out, &error, &stats));
    EXPECT_EQ(readFile(out), once);
    std::filesystem::remove_all(dir);
}

TEST(SweepTimeline, EmptyDirFails)
{
    const auto dir = freshDir("dice_test_timeline_empty");
    std::string error;
    EXPECT_FALSE(dice::mergeSweepTimeline(dir / "events",
                                          dir / "t.json", &error));
    EXPECT_FALSE(error.empty());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Journal spans on thread lanes.

/** One "X" event of a merged timeline. */
struct TimelineSpan
{
    double pid, tid, ts, dur;
};

std::vector<TimelineSpan>
timelineSpans(const dice::testjson::Value &root)
{
    std::vector<TimelineSpan> spans;
    for (const auto &ev : root.at("traceEvents").array) {
        if (ev->at("ph").string != "X")
            continue;
        spans.push_back({ev->at("pid").number, ev->at("tid").number,
                         ev->at("ts").number, ev->at("dur").number});
    }
    return spans;
}

/**
 * Spans that partially overlap the open span of their (pid, tid)
 * lane. On a well-formed lane every span either nests inside the
 * open span or starts after it ends, which is what Perfetto needs to
 * draw the lane as a stack.
 */
std::size_t
partialOverlaps(std::vector<TimelineSpan> spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const TimelineSpan &a, const TimelineSpan &b) {
                  return std::tie(a.pid, a.tid, a.ts, b.dur) <
                         std::tie(b.pid, b.tid, b.ts, a.dur);
              });
    std::size_t overlaps = 0;
    std::vector<const TimelineSpan *> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const TimelineSpan &s = spans[i];
        if (i > 0 && (spans[i - 1].pid != s.pid || spans[i - 1].tid != s.tid))
            open.clear();
        while (!open.empty() && s.ts >= open.back()->ts + open.back()->dur)
            open.pop_back();
        if (!open.empty() &&
            s.ts + s.dur > open.back()->ts + open.back()->dur)
            ++overlaps;
        open.push_back(&s);
    }
    return overlaps;
}

TEST(TraceEvents, SpansFromManyThreadsProduceAValidDocument)
{
    const auto dir = freshDir("dice_test_span_lanes");
    dice::SweepJournal &jr = dice::SweepJournal::instance();
    ASSERT_TRUE(jr.open(dir, "serial"));
    {
        const std::string sweep = "mix\"quoted\"";
        dice::JournalSpan outer("sweep", sweep);
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; ++t) {
            workers.emplace_back([t] {
                for (int i = 0; i < 8; ++i) {
                    std::string task = "w";
                    task += std::to_string(t);
                    task += '.';
                    task += std::to_string(i);
                    dice::JournalSpan span("task", task);
                }
            });
        }
        for (auto &w : workers)
            w.join();
    }
    jr.close();

    const auto out = dir / "timeline.json";
    ASSERT_TRUE(dice::mergeSweepTimeline(dir, out));
    const std::string once = readFile(out);
    const auto root = dice::testjson::parse(once);
    EXPECT_EQ(root->at("displayTimeUnit").string, "ms");

    std::set<double> tids;
    bool saw_outer = false;
    for (const auto &ev : root->at("traceEvents").array) {
        if (ev->at("ph").string != "X")
            continue;
        EXPECT_EQ(ev->at("cat").string, "phase");
        EXPECT_TRUE(ev->at("ts").isNumber());
        EXPECT_TRUE(ev->at("dur").isNumber());
        EXPECT_TRUE(ev->at("pid").isNumber());
        tids.insert(ev->at("tid").number);
        if (ev->at("name").string == "sweep") {
            saw_outer = true;
            EXPECT_EQ(ev->at("args").at("cell").string, "mix\"quoted\"");
        }
    }
    const std::vector<TimelineSpan> spans = timelineSpans(*root);
    EXPECT_EQ(spans.size(), 33u); // 4 threads x 8 spans + the outer
    // The four workers and the main thread land on distinct lanes,
    // where every span nests or follows.
    EXPECT_GE(tids.size(), 5u);
    EXPECT_TRUE(saw_outer);
    EXPECT_EQ(partialOverlaps(spans), 0u);

    // Re-merging rewrites the complete document.
    ASSERT_TRUE(dice::mergeSweepTimeline(dir, out));
    EXPECT_EQ(readFile(out), once);
    std::filesystem::remove_all(dir);
}

TEST(TraceEvents, ClosedJournalSpanWritesNoRecord)
{
    const auto dir = freshDir("dice_test_span_closed");
    dice::SweepJournal &jr = dice::SweepJournal::instance();
    ASSERT_TRUE(jr.open(dir, "serial"));
    jr.close();
    const std::string epoch_only = readFile(dir / "serial.jsonl");

    SweepMetrics &m = SweepMetrics::instance();
    m.resetForTest();
    {
        const std::string cell = "mcf_dice";
        dice::JournalSpan span("cell", cell);
        dice::JournalSpan inner("warmup");
    }
    // Nothing reached the journal...
    EXPECT_EQ(readFile(dir / "serial.jsonl"), epoch_only);
    // ...but the whole-cell latency was still sampled, for perfbench.
    EXPECT_EQ(m.snapshot(SweepPhase::Cell).count(), 1u);
    for (const SweepPhase p : {SweepPhase::Generate, SweepPhase::Simulate,
                               SweepPhase::Export})
        EXPECT_EQ(m.snapshot(p).count(), 0u);
    m.resetForTest();
    std::filesystem::remove_all(dir);
}

TEST(SweepFold, SpansJournalWhatSweepMetricsSample)
{
    const auto dir = freshDir("dice_test_span_fold");
    dice::SweepJournal &jr = dice::SweepJournal::instance();
    SweepMetrics &m = SweepMetrics::instance();
    m.resetForTest();
    ASSERT_TRUE(jr.open(dir, "serial"));
    {
        const std::string cell = "lbm_dice";
        dice::JournalSpan span("cell", cell);
        dice::JournalSpan simulate("simulate", cell);
        dice::JournalSpan warmup("warmup"); // journals lbm_dice
    }
    jr.close();

    dice::ParticipantJournal journal;
    ASSERT_TRUE(dice::readJournal(dir / "serial.jsonl", journal));
    std::vector<std::string> records;
    for (const JournalEvent &e : journal.events) {
        records.push_back(e.ev + " " + e.phase + " " + e.cell);
        EXPECT_EQ(e.tid, journal.events.front().tid); // one thread
    }
    const std::vector<std::string> want = {
        "begin cell lbm_dice",     "begin simulate lbm_dice",
        "begin warmup lbm_dice",   "phase warmup lbm_dice",
        "phase simulate lbm_dice", "phase cell lbm_dice"};
    EXPECT_EQ(records, want);

    // The fold's histograms equal what the process sampled.
    const ParticipantFold f = dice::foldJournal(journal);
    for (const SweepPhase p : {SweepPhase::Cell, SweepPhase::Simulate}) {
        const LogHistogram &got = f.phases[static_cast<unsigned>(p)];
        EXPECT_EQ(got.count(), 1u);
        EXPECT_EQ(got.sum(), m.snapshot(p).sum());
    }
    m.resetForTest();
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Anomaly detection.

TEST(SweepAnomalies, StragglerAndChurn)
{
    LogHistogram cell_us;
    for (int i = 0; i < 20; ++i)
        cell_us.sample(1000);
    cell_us.sample(500000); // one 500ms cell among 1ms cells

    const auto warns = dice::sweepAnomalyWarnings(
        cell_us, "lbm_dice", 500000, /*requeued=*/0, /*cells=*/21,
        /*k=*/4.0);
    ASSERT_EQ(warns.size(), 1u);
    EXPECT_NE(warns[0].find("straggler"), std::string::npos);
    EXPECT_NE(warns[0].find("lbm_dice"), std::string::npos);

    // Healthy uniform batch: silent.
    LogHistogram uniform;
    for (int i = 0; i < 20; ++i)
        uniform.sample(1000);
    EXPECT_TRUE(dice::sweepAnomalyWarnings(uniform, "x", 1000, 0, 20,
                                           4.0)
                    .empty());

    // Tiny batches never self-flag, however skewed.
    LogHistogram tiny;
    tiny.sample(1);
    tiny.sample(100000);
    EXPECT_TRUE(dice::sweepAnomalyWarnings(tiny, "x", 100000, 0, 2,
                                           4.0)
                    .empty());

    // Requeue storm: a quarter of the batch came back through dead
    // holders' leases.
    const auto churn = dice::sweepAnomalyWarnings(uniform, "x", 1000,
                                                  /*requeued=*/5,
                                                  /*cells=*/20, 4.0);
    ASSERT_EQ(churn.size(), 1u);
    EXPECT_NE(churn[0].find("churn"), std::string::npos);
}

// ---------------------------------------------------------------------
// The journal fold.

/** One hand-written journal record line. */
std::string
rec(const std::string &body)
{
    return "{" + body + ",\"wall_us\":1000,\"mono_us\":1}\n";
}

std::string
epoch(const std::string &who, long pid)
{
    return "{\"ev\":\"epoch\",\"participant\":\"" + who +
           "\",\"pid\":" + std::to_string(pid) +
           ",\"host\":\"h\",\"wall_us\":1000,\"mono_us\":0}\n";
}

std::string
claim(const std::string &cell, int stolen, int requeued,
      std::uint64_t wait_us, std::uint64_t acquire_us)
{
    return rec("\"ev\":\"claim\",\"cell\":\"" + cell +
               "\",\"stolen\":" + std::to_string(stolen) +
               ",\"requeued\":" + std::to_string(requeued) +
               ",\"wait_us\":" + std::to_string(wait_us) +
               ",\"acquire_us\":" + std::to_string(acquire_us));
}

std::string
phase(const std::string &name, const std::string &cell,
      std::uint64_t dur_us)
{
    return rec("\"ev\":\"phase\",\"phase\":\"" + name +
               "\",\"cell\":\"" + cell +
               "\",\"start_us\":0,\"dur_us\":" + std::to_string(dur_us));
}

std::string
event(const std::string &ev, const std::string &field,
      const std::string &value)
{
    return rec("\"ev\":\"" + ev + "\",\"" + field + "\":\"" + value +
               "\"");
}

std::string
batch(unsigned long index, std::size_t cells, unsigned jobs,
      std::uint64_t span_us)
{
    return rec("\"ev\":\"batch\",\"batch\":" + std::to_string(index) +
               ",\"cells\":" + std::to_string(cells) +
               ",\"jobs\":" + std::to_string(jobs) +
               ",\"span_us\":" + std::to_string(span_us));
}

/**
 * A two-batch sweep as its participants would journal it:
 *  - the coordinator spawns, simulates nothing, closes both batches;
 *  - worker0 works batch 0 (segment 0), then is respawned for batch 1
 *    (segment 1) and SIGKILLed mid-cell: no batch record, a torn
 *    final line;
 *  - worker1 requeues worker0's dead cell and has the slowest cell;
 *  - join77 attached late and has not closed its batch yet.
 */
std::filesystem::path
writeFoldJournals()
{
    const auto dir = freshDir("dice_test_journal_fold");
    const auto events = dir / "events";
    std::filesystem::create_directories(events);
    writeFile(events / "coordinator.jsonl",
              epoch("coordinator", 1) +
                  event("mark", "name", "spawn") + batch(0, 2, 4, 100000) +
                  batch(1, 3, 4, 200000));
    writeFile(events / "worker0.jsonl",
              epoch("worker0", 2) + claim("a", 0, 0, 10, 3) +
                  event("arena", "op", "generate") +
                  event("arena", "op", "spill") +
                  phase("generate", "a", 2000) +
                  phase("simulate", "a", 30000) +
                  phase("export", "a", 0) + phase("cell", "a", 40000) +
                  event("publish", "cell", "a") +
                  rec("\"ev\":\"lease\",\"op\":\"refresh\","
                      "\"cell\":\"a\",\"dur_us\":7") +
                  batch(0, 2, 1, 50000) + epoch("worker0", 5) +
                  claim("c", 1, 0, 0, 4) +
                  event("arena", "op", "disk_hit") +
                  rec("\"ev\":\"begin\",\"phase\":\"cell\","
                      "\"cell\":\"c\"") +
                  phase("cell", "c", 20000) +
                  event("publish", "cell", "c") + claim("d", 1, 0, 5, 2) +
                  rec("\"ev\":\"begin\",\"phase\":\"cell\","
                      "\"cell\":\"d\"") +
                  rec("\"ev\":\"begin\",\"phase\":\"simulate\","
                      "\"cell\":\"d\"") +
                  R"({"ev":"phase","phase":"cell","cell":"d","dur)");
    writeFile(events / "worker1.jsonl",
              epoch("worker1", 3) + claim("b", 1, 0, 20, 5) +
                  phase("cell", "b", 70000) +
                  event("publish", "cell", "b") +
                  rec("\"ev\":\"lease\",\"op\":\"break\","
                      "\"cell\":\"d\",\"dur_us\":0") +
                  claim("d", 1, 1, 100, 9) + phase("cell", "d", 10000) +
                  event("publish", "cell", "d") +
                  batch(1, 3, 2, 90000));
    writeFile(events / "join77.jsonl",
              epoch("join77", 77) + claim("e", 1, 0, 0, 1) +
                  phase("cell", "e", 5000) +
                  event("publish", "cell", "e"));
    return dir;
}

void
expectSameHistogram(const LogHistogram &got, const LogHistogram &want,
                    const std::string &what)
{
    EXPECT_EQ(got.count(), want.count()) << what;
    EXPECT_EQ(got.sum(), want.sum()) << what;
    EXPECT_EQ(got.max(), want.max()) << what;
    EXPECT_EQ(got.min(), want.min()) << what;
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i)
        EXPECT_EQ(got.bucket(i), want.bucket(i)) << what << " bucket " << i;
}

TEST(SweepFold, RebuildsEveryParticipantRecord)
{
    const auto dir = writeFoldJournals();
    const std::vector<ParticipantFold> folds =
        dice::foldSweepJournals(dir / "events");
    ASSERT_EQ(folds.size(), 4u);
    const ParticipantFold &coord = folds[0];
    const ParticipantFold &join = folds[1];
    const ParticipantFold &w0 = folds[2];
    const ParticipantFold &w1 = folds[3];
    EXPECT_EQ(coord.name, "coordinator");
    EXPECT_EQ(join.name, "join77");
    EXPECT_EQ(w0.name, "worker0");
    EXPECT_EQ(w1.name, "worker1");

    // The coordinator closed both batches and simulated nothing.
    EXPECT_EQ(coord.cells, 0u);
    EXPECT_EQ(coord.batches, 2u);
    EXPECT_EQ(coord.batch_cells, 5u);
    EXPECT_EQ(coord.span_us, 300000u);
    EXPECT_EQ(coord.jobs, 4u);
    EXPECT_DOUBLE_EQ(coord.utilization(), 0.0);

    // worker0: both segments count; the killed segment's cell d is
    // still in flight (its closing record was torn), and only the
    // closed batch's busy time enters utilization.
    EXPECT_EQ(w0.cells, 2u);
    EXPECT_EQ(w0.stolen, 2u);
    EXPECT_EQ(w0.requeued, 0u);
    EXPECT_EQ(w0.busy_us, 60000u);
    EXPECT_EQ(w0.batches, 1u);
    EXPECT_EQ(w0.span_us, 50000u);
    EXPECT_EQ(w0.jobs, 1u);
    EXPECT_DOUBLE_EQ(w0.utilization(), 40000.0 / 50000.0);
    EXPECT_EQ(w0.generations, 1u);
    EXPECT_EQ(w0.spills, 1u);
    EXPECT_EQ(w0.disk_hits, 1u);
    EXPECT_EQ(w0.in_flight_cell, "d");
    EXPECT_EQ(w0.in_flight_phase, "simulate");

    EXPECT_EQ(w1.cells, 2u);
    EXPECT_EQ(w1.stolen, 2u);
    EXPECT_EQ(w1.requeued, 1u);
    EXPECT_EQ(w1.busy_us, 80000u);
    EXPECT_EQ(w1.jobs, 2u);
    EXPECT_DOUBLE_EQ(w1.utilization(), 80000.0 / (90000.0 * 2));
    EXPECT_EQ(w1.slowest_cell, "b");
    EXPECT_EQ(w1.slowest_us, 70000u);
    EXPECT_TRUE(w1.in_flight_cell.empty());

    // The joiner's batch is still open: counted work, no span yet.
    EXPECT_EQ(join.cells, 1u);
    EXPECT_EQ(join.stolen, 1u);
    EXPECT_EQ(join.busy_us, 5000u);
    EXPECT_EQ(join.batches, 0u);
    EXPECT_EQ(join.jobs, 0u);
    EXPECT_DOUBLE_EQ(join.utilization(), 0.0);

    // Merged, the histograms equal one LogHistogram fed every
    // journaled microsecond value, bucket for bucket.
    ParticipantFold all;
    for (const ParticipantFold &p : folds)
        all.merge(p);
    EXPECT_EQ(all.cells, 5u);
    EXPECT_EQ(all.requeued, 1u);
    EXPECT_EQ(all.generations, 1u);
    EXPECT_EQ(all.slowest_cell, "b");
    const auto hist = [](std::initializer_list<std::uint64_t> us) {
        LogHistogram h;
        for (const std::uint64_t v : us)
            h.sample(v);
        return h;
    };
    const auto at = [&all](SweepPhase p) -> const LogHistogram & {
        return all.phases[static_cast<unsigned>(p)];
    };
    expectSameHistogram(at(SweepPhase::ClaimWait),
                        hist({10, 0, 5, 20, 100, 0}), "claim_wait");
    expectSameHistogram(at(SweepPhase::LeaseAcquire),
                        hist({3, 4, 2, 5, 9, 1}), "lease_acquire");
    expectSameHistogram(at(SweepPhase::Generate), hist({2000}),
                        "generate");
    expectSameHistogram(at(SweepPhase::Simulate), hist({30000}),
                        "simulate");
    expectSameHistogram(at(SweepPhase::Export), hist({0}), "export");
    expectSameHistogram(at(SweepPhase::Cell),
                        hist({40000, 20000, 70000, 10000, 5000}), "cell");
    expectSameHistogram(at(SweepPhase::LeaseRefresh), hist({7}),
                        "lease_refresh");
    std::filesystem::remove_all(dir);
}

TEST(SweepFold, EmittersRoundTripThroughTheFold)
{
    // What SweepJournal writes is what the fold reads.
    const auto dir = freshDir("dice_test_journal_emit");
    dice::SweepJournal &jr = dice::SweepJournal::instance();
    ASSERT_TRUE(jr.open(dir, "worker3"));
    jr.claim("mcf_dice", true, true, 12, 34);
    jr.begin("cell", "mcf_dice");
    jr.phase("cell", "mcf_dice", 0, 5000);
    jr.publish("mcf_dice");
    jr.arena("generate", "mcf.s1", 4096);
    jr.batch(2, 9, 3, 8000);
    jr.close();
    EXPECT_FALSE(jr.enabled());

    const std::vector<ParticipantFold> folds =
        dice::foldSweepJournals(dir);
    ASSERT_EQ(folds.size(), 1u);
    const ParticipantFold &f = folds[0];
    EXPECT_EQ(f.name, "worker3");
    EXPECT_EQ(f.cells, 1u);
    EXPECT_EQ(f.stolen, 1u);
    EXPECT_EQ(f.requeued, 1u);
    EXPECT_EQ(f.busy_us, 5000u);
    EXPECT_EQ(f.generations, 1u);
    EXPECT_EQ(f.batches, 1u);
    EXPECT_EQ(f.batch_cells, 9u);
    EXPECT_EQ(f.jobs, 3u);
    EXPECT_DOUBLE_EQ(f.utilization(), 5000.0 / (8000.0 * 3));
    EXPECT_EQ(f.phases[static_cast<unsigned>(SweepPhase::LeaseAcquire)]
                  .sum(),
              34u);
    EXPECT_EQ(f.slowest_cell, "mcf_dice");
    EXPECT_TRUE(f.in_flight_cell.empty());
    std::filesystem::remove_all(dir);
}

} // namespace
