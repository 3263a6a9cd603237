/**
 * @file
 * Simulator benchmark: runs one named workload as a cold batch of
 * simulation cells, checks every cell's result digest, and prints every
 * metric by name with its unit, the last line being one JSON object.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --expected FILE [--trace-out FILE]
 *   perfbench --record FILE
 *
 * --trace 0 reports the end-to-end metrics of untraced batches;
 * --trace 1 reports per-layer metrics from a traced run (traced.cpp)
 * beside untraced batches of the same cells, and writes span totals to
 * the --trace-out file (required with --trace 1). --record re-simulates
 * the recorded seeds and writes their digests and per-cell costs.
 * run.py builds this program and is the command to use; NOTES.md
 * explains the workloads and metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/parallel.hpp"
#include "common/sweep_events.hpp"
#include "perfbench.hpp"

namespace
{

using namespace dice;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Measured references per core; warm-up is half again. */
constexpr std::uint64_t kRefsPerCore = 40'000;
/** Seeds whose digests the expectations file records. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 1009;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 11;

/** A named batch of DICE cells; see NOTES.md for why each exists. */
struct Workload
{
    std::string name;
    std::vector<std::string> traces;
    /** Seeds per trace (each replica replays its own stream). */
    unsigned replicas;
};

/** What every cell simulates: DICE on the harness's default machine. */
SystemConfig
benchConfig()
{
    SystemConfig cfg = bench::configureDice(bench::defaultBase());
    cfg.refs_per_core = kRefsPerCore;
    cfg.warmup_refs_per_core = kRefsPerCore / 2;
    return cfg;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"dice-hits", {"libq", "sphinx", "gcc"}, 4},
        {"dice-thrash", {"mcf", "lbm", "pr_web"}, 4},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

/** Recorded digests and per-cell host costs (the expectations file). */
struct Expectations
{
    /** "<workload> <trace>/<org>" -> milliseconds on one thread. */
    std::map<std::string, double> cost_ms;
    /** "<workload> <seed> <cell id>" -> resultDigest. */
    std::map<std::string, std::uint64_t> digests;

    static std::string
    digestKey(const std::string &workload, std::uint64_t seed,
              const Cell &c)
    {
        return workload + " " + std::to_string(seed) + " " + c.id();
    }

    static std::string
    costKey(const std::string &workload, const Cell &c)
    {
        return workload + " " + c.trace + "/" + c.org();
    }

    bool
    recordsSeed(const std::string &workload, std::uint64_t seed) const
    {
        const std::string prefix =
            workload + " " + std::to_string(seed) + " ";
        const auto it = digests.lower_bound(prefix);
        return it != digests.end() &&
               it->first.compare(0, prefix.size(), prefix) == 0;
    }

    /** Lines "cost <workload> <trace>/<org> <ms>" and
     *  "digest <workload> <seed> <cell id> <hex>"; '#' comments. */
    static bool
    load(const std::string &path, Expectations &out)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string kind, workload, a, b, c;
            fields >> kind >> workload >> a >> b;
            if (kind == "cost" && fields) {
                out.cost_ms[workload + " " + a] = std::stod(b);
            } else if (kind == "digest" && (fields >> c)) {
                out.digests[workload + " " + a + " " + b] =
                    std::stoull(c, nullptr, 16);
            } else {
                std::fprintf(stderr, "perfbench: bad line in %s: %s\n",
                             path.c_str(), line.c_str());
                return false;
            }
        }
        return true;
    }
};

/**
 * The cells of @p w for run seed @p seed, longest expected first:
 * parallelFor hands cells out in list order, so an expensive cell
 * dealt last would idle the other threads.
 */
std::vector<Cell>
cellsFor(const Workload &w, std::uint64_t seed, const Expectations &exp)
{
    const SystemConfig config = benchConfig();
    std::vector<Cell> cells;
    for (const std::string &trace : w.traces) {
        for (unsigned r = 0; r < w.replicas; ++r) {
            // Every replica replays its own stream.
            Cell c{trace, r, config};
            c.config.seed = seed * 16 + r + 1;
            cells.push_back(std::move(c));
        }
    }
    const auto cost = [&w, &exp](const Cell &c) {
        const auto it = exp.cost_ms.find(Expectations::costKey(w.name, c));
        return it == exp.cost_ms.end() ? 0.0 : it->second;
    };
    std::stable_sort(cells.begin(), cells.end(),
                     [&cost](const Cell &a, const Cell &b) {
                         return cost(a) > cost(b);
                     });
    return cells;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Acquire the stream each of @p cells replays (every cell has its own
 * trace and seed), in parallel over @p jobs threads with one stream per
 * task (no nested pool).
 */
std::vector<std::shared_ptr<const TraceSet>>
acquireStreams(const std::vector<Cell> &cells, unsigned jobs)
{
    std::vector<std::shared_ptr<const TraceSet>> sets(cells.size());
    parallelFor(cells.size(), jobs, [&cells, &sets](std::size_t i) {
        const Cell &c = cells[i];
        const SystemConfig &cfg = c.config;
        sets[i] = TraceArena::instance().acquire(
            c.trace, cfg.seed, cfg.num_cores, cfg.reference_capacity,
            cfg.warmup_refs_per_core + cfg.refs_per_core + 1,
            bench::workloadProfiles(c.trace, cfg.num_cores), 1);
    });
    return sets;
}

std::string
cacheKey(const Cell &c, const std::string &tag)
{
    // runCells and its memo dedupe on workload|cache_key, so the seed
    // and the batch tag make every simulation of a run distinct.
    return c.org() + "/s" + std::to_string(c.config.seed) + "/" + tag;
}

/** One runCells call over @p cells; returns its wall seconds. */
double
runBatch(const std::vector<Cell> &cells, const std::string &tag,
         BatchResults &results)
{
    std::vector<bench::SimCell> sim;
    sim.reserve(cells.size());
    for (const Cell &c : cells)
        sim.push_back({c.trace, c.config, cacheKey(c, tag)});
    const auto t0 = Clock::now();
    bench::runCells(sim);
    const double wall = secondsSince(t0);
    results.clear();
    for (const bench::SimCell &s : sim)
        results.push_back(bench::runWorkload(s.workload, s.config,
                                             s.cache_key));
    return wall;
}

/** Cells attempted and cells whose digest was wrong. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Count the cells of one batch, failing each whose digest differs
 * from the recorded one, or, for a seed with no recording, from the
 * first batch of this run (@p first).
 */
void
checkBatch(const Workload &w, std::uint64_t seed,
           const std::vector<Cell> &cells, const BatchResults &results,
           const BatchResults &first, const Expectations &exp,
           Tally &tally)
{
    const bool recorded = exp.recordsSeed(w.name, seed);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::uint64_t got = bench::detail::resultDigest(results[i]);
        std::uint64_t want = bench::detail::resultDigest(first[i]);
        if (recorded) {
            const auto it = exp.digests.find(
                Expectations::digestKey(w.name, seed, cells[i]));
            want = it == exp.digests.end() ? ~got : it->second;
        }
        ++tally.attempted;
        if (got != want) {
            ++tally.failed;
            std::fprintf(stderr,
                         "perfbench: %s seed %llu cell %s digest %016llx, "
                         "expected %016llx\n",
                         w.name.c_str(),
                         static_cast<unsigned long long>(seed),
                         cells[i].id().c_str(),
                         static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(want));
        }
    }
}

/**
 * Check the recorded digests: a run whose seed has none simulates the
 * default seed's cells once more, after everything timed.
 */
void
digestGate(const Workload &w, std::uint64_t seed, const Expectations &exp,
           unsigned jobs, Tally &tally)
{
    if (exp.recordsSeed(w.name, seed))
        return; // every timed batch was already checked against it
    const std::vector<Cell> cells = cellsFor(w, kDefaultSeed, exp);
    if (!exp.recordsSeed(w.name, kDefaultSeed)) {
        std::fprintf(stderr, "perfbench: no recorded digests for %s\n",
                     w.name.c_str());
        tally.attempted += cells.size();
        tally.failed += cells.size();
        return;
    }
    acquireStreams(cells, jobs);
    BatchResults results;
    runBatch(cells, "gate", results);
    checkBatch(w, kDefaultSeed, cells, results, results, exp, tally);
}

/** Untraced batches, repeated while another fits in the budget. */
struct Batches
{
    std::vector<double> walls;
    std::vector<double> rates;
    BatchResults first;
};

Batches
runBatches(const Workload &w, std::uint64_t seed,
           const std::vector<Cell> &cells, double seconds,
           const Expectations &exp, Tally &tally)
{
    std::uint64_t refs = 0;
    for (const Cell &c : cells)
        refs += c.refs();
    Batches b;
    double elapsed = 0.0;
    do {
        BatchResults results;
        const double wall =
            runBatch(cells, "r" + std::to_string(b.walls.size()), results);
        if (b.walls.empty())
            b.first = results;
        checkBatch(w, seed, cells, results, b.first, exp, tally);
        b.walls.push_back(wall);
        b.rates.push_back(double(refs) / wall);
        elapsed += wall;
    } while (elapsed + elapsed / double(b.walls.size()) <= seconds);
    return b;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Host steal time so far (seconds), from /proc/stat; 0 if absent. */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t v[8] = {};
    in >> cpu;
    for (std::uint64_t &x : v)
        in >> x;
    if (!in || cpu != "cpu")
        return 0.0;
    return double(v[7]) / double(sysconf(_SC_CLK_TCK));
}

void
printResult(bool correct, const Tally &tally,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/** The end-to-end metrics, from untraced batches. */
std::vector<Metric>
endToEnd(const Workload &w, std::uint64_t seed,
         const std::vector<Cell> &cells, double seconds,
         const std::vector<double> &setups, const Expectations &exp,
         Tally &tally)
{
    const Batches b = runBatches(w, seed, cells, seconds, exp, tally);
    std::printf("%s seed %llu: %zu cells x %zu untraced batches on %u "
                "threads, %.4g to %.4g refs/s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                cells.size(), b.walls.size(), bench::benchJobs(),
                *std::min_element(b.rates.begin(), b.rates.end()),
                *std::max_element(b.rates.begin(), b.rates.end()));
    return {
        {"refs_per_s", median(b.rates), "refs/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
    };
}

/**
 * The per-layer metrics: untraced batches for half the budget (pool
 * and cell-time figures, and the per-core cycles the traced cells must
 * reproduce), then the traced run for the other half.
 */
std::vector<Metric>
perLayer(const Workload &w, std::uint64_t seed,
         const std::vector<Cell> &cells,
         const std::vector<std::shared_ptr<const TraceSet>> &streams,
         double seconds, const std::vector<double> &setups,
         const Expectations &exp, const std::string &trace_out,
         Tally &tally)
{
    SweepMetrics &sm = SweepMetrics::instance();
    const LogHistogram cells0 = sm.snapshot(SweepPhase::Cell);
    const Batches b = runBatches(w, seed, cells, seconds / 2, exp, tally);
    const LogHistogram cell_us =
        sm.snapshot(SweepPhase::Cell).subtracted(cells0);
    double wall_sum = 0.0;
    for (const double wall : b.walls)
        wall_sum += wall;
    const double n = double(cell_us.count());
    // The highest percentile with ten cells beyond it, but not below
    // the median when a short run times fewer than twenty cells.
    const double tail_q = std::max(0.5, (n - 10) / n);
    const double untraced_rate = median(b.rates);
    const unsigned jobs = bench::benchJobs();

    const TracedOutcome t =
        runTraced(cells, b.first, streams, seconds / 2, jobs, trace_out);
    tally.attempted += t.attempted;
    tally.failed += t.failed;
    std::printf("%s seed %llu: %zu cells x %zu untraced batches at %.4g "
                "refs/s, traced at %.4g refs/s\n",
                w.name.c_str(), static_cast<unsigned long long>(seed),
                cells.size(), b.walls.size(), untraced_rate, t.refs_per_s);

    std::uint64_t stream_refs = 0;
    for (const auto &set : streams) {
        for (const PackedTrace &p : set->streams)
            stream_refs += p.size();
    }
    const TraceArena::Stats as = TraceArena::instance().stats();
    std::vector<Metric> metrics = {
        {"bench.pool_util", double(cell_us.sum()) * 1e-6 / (wall_sum * jobs),
         "ratio"},
        {"bench.cell_s.p50", cell_us.percentile(0.5) * 1e-6, "s"},
        {"bench.cell_s.tail", cell_us.percentile(tail_q) * 1e-6, "s"},
        {"bench.cells", n, "count"},
        {"bench.traced_over_untraced", t.refs_per_s / untraced_rate,
         "ratio"},
        {"workloads.gen_ns_per_ref",
         median(setups) * 1e9 / double(stream_refs), "ns/ref"},
        {"workloads.generations", double(as.generations), "count"},
        {"workloads.arena_hits", double(as.hits), "count"},
    };
    metrics.insert(metrics.end(), t.metrics.begin(), t.metrics.end());
    return metrics;
}

/** Simulate the recorded seeds cell by cell; write expectations. */
int
record(const std::string &path)
{
    const Expectations none;
    std::ostringstream out;
    out << "# perfbench expectations, written by `run.py --record`.\n"
        << "# cost <workload> <trace>/<org> <ms on one thread, mean "
           "over seeds>\n"
        << "# digest <workload> <seed> <trace>/<org>/<replica> "
           "<resultDigest>\n";
    for (const Workload &w : workloads()) {
        std::map<std::string, std::vector<double>> costs;
        std::ostringstream digests;
        for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
            const std::vector<Cell> cells = cellsFor(w, seed, none);
            acquireStreams(cells, bench::benchJobs());
            for (const Cell &c : cells) {
                const auto t0 = Clock::now();
                const RunResult &r = bench::runWorkload(
                    c.trace, c.config, cacheKey(c, "record"));
                costs[Expectations::costKey(w.name, c)].push_back(
                    secondsSince(t0) * 1e3);
                char hex[17];
                std::snprintf(hex, sizeof hex, "%016llx",
                              static_cast<unsigned long long>(
                                  bench::detail::resultDigest(r)));
                digests << "digest " << w.name << ' ' << seed << ' '
                        << c.id() << ' ' << hex << '\n';
            }
        }
        for (const auto &[key, ms] : costs) {
            double sum = 0.0;
            for (const double m : ms)
                sum += m;
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f", sum / double(ms.size()));
            out << "cost " << key << ' ' << buf << '\n';
        }
        out << digests.str();
    }
    std::ofstream file(path);
    file << out.str();
    return file ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --expected FILE [--trace-out FILE]\n"
                 "       perfbench --record FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    if (argc % 2 == 0)
        return usage();
    for (int i = 1; i < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (args.count("record"))
        return record(args["record"]);

    const Workload *w = findWorkload(args["workload"]);
    const bool traced = args["trace"] == "1";
    if (w == nullptr || !args.count("seed") || !args.count("seconds") ||
        !args.count("expected") || (traced && !args.count("trace-out")))
        return usage();
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    Expectations exp;
    if (!Expectations::load(args["expected"], exp)) {
        std::fprintf(stderr, "perfbench: cannot read %s\n",
                     args["expected"].c_str());
        return 2;
    }

    const double steal0 = stealSeconds();
    const std::vector<Cell> cells = cellsFor(*w, seed, exp);
    TraceArena &arena = TraceArena::instance();

    // Set-up: acquire every stream the batch replays, so that no cell
    // generates one (which would also nest a pool in each pool thread).
    std::vector<std::shared_ptr<const TraceSet>> streams;
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        streams.clear();
        arena.clear();
        const auto t0 = Clock::now();
        streams = acquireStreams(cells, bench::benchJobs());
        setups.push_back(secondsSince(t0));
    }
    const std::uint64_t generations = arena.stats().generations;

    Tally tally;
    const std::vector<Metric> metrics =
        traced ? perLayer(*w, seed, cells, streams, seconds, setups, exp,
                          args["trace-out"], tally)
               : endToEnd(*w, seed, cells, seconds, setups, exp, tally);

    // The set-up isolation guard: a stream generated inside the timed
    // batches means set-up work leaked into refs_per_s.
    const std::uint64_t leaked = arena.stats().generations - generations;
    if (leaked != 0)
        std::fprintf(stderr,
                     "perfbench: %llu streams generated inside the timed "
                     "batches\n",
                     static_cast<unsigned long long>(leaked));
    digestGate(*w, seed, exp, bench::benchJobs(), tally);

    std::uint64_t stream_bytes = 0;
    for (const auto &set : streams)
        stream_bytes += set->bytes();
    std::printf("# diagnostic: %zu streams, %.1f MiB resident; host steal "
                "%.2f s during this run\n",
                streams.size(), double(stream_bytes) / (1 << 20),
                stealSeconds() - steal0);
    const bool correct = tally.failed == 0 && leaked == 0;
    printResult(correct, tally, metrics);
    return correct ? 0 : 1;
}
