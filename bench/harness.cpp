#include "harness.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <chrono>

#include "sweep_queue.hpp"

#include "common/claim_file.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/sweep_events.hpp"
#include "common/telemetry.hpp"

#ifdef _WIN32
#include <process.h>
#else
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
extern char **environ;
#endif

namespace dice::bench
{

namespace
{

/** Bump when simulator or cache-file format changes invalidate
 *  cached results (v6: trailing checksum field). */
constexpr int kCacheVersion = 6;

/** Scale knob: DICE_BENCH_REFS overrides refs per core. */
std::uint64_t
refsPerCore()
{
    if (const char *env = std::getenv("DICE_BENCH_REFS"))
        return std::strtoull(env, nullptr, 10);
    return 40'000;
}

/**
 * Directory for cross-binary result caching. Every bench binary needs
 * many of the same (workload, organization) simulations; persisting
 * them lets the whole table suite run each simulation exactly once.
 * Disable with DICE_BENCH_NO_CACHE=1.
 */
std::filesystem::path
cacheDir()
{
    if (const char *env = std::getenv("DICE_BENCH_CACHE_DIR"))
        return env;
    return "bench_cache";
}

bool
cacheEnabled()
{
    return std::getenv("DICE_BENCH_NO_CACHE") == nullptr;
}

std::string
resultFileName(const std::string &workload, const SystemConfig &config,
               const std::string &cache_key)
{
    std::ostringstream key;
    key << kCacheVersion << '|' << workload << '|' << cache_key << '|'
        << config.refs_per_core << '|' << config.warmup_refs_per_core
        << '|' << config.seed << '|' << config.reference_capacity;
    return std::to_string(mix64(std::hash<std::string>{}(key.str()))) +
           ".result";
}

/** Stable (cross-process, cross-build) FNV-1a hash of the payload. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Serialize a result into the cache-file payload (no checksum). */
std::string
serializeResult(const RunResult &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.cycles << ' ' << r.instructions << ' ' << r.ipc << ' '
        << r.l3_hit_rate << ' ' << r.l4_hit_rate << ' ' << r.l4_reads
        << ' ' << r.l4_extra_lines << ' ' << r.l4_second_probes << ' '
        << r.cip_read_accuracy << ' ' << r.cip_write_accuracy << ' '
        << r.mapi_accuracy << ' ' << r.frac_invariant << ' '
        << r.frac_bai << ' ' << r.frac_tsi << ' ' << r.avg_valid_lines
        << ' ' << r.l4_bytes << ' ' << r.mem_bytes << ' '
        << r.avg_miss_latency << ' ' << r.energy.l4_nj << ' '
        << r.energy.mem_nj << ' ' << r.energy.background_nj << ' '
        << r.energy.total_nj << ' ' << r.energy.avg_power_w << ' '
        << r.energy.edp << ' ' << r.energy.seconds << ' '
        << r.core_cycles.size();
    for (const Cycle c : r.core_cycles)
        out << ' ' << c;
    return out.str();
}

/** Inverse of serializeResult(); false on malformed payloads. */
bool
parseResult(const std::string &payload, RunResult &r)
{
    std::istringstream in(payload);
    std::size_t n_cores = 0;
    in >> r.cycles >> r.instructions >> r.ipc >> r.l3_hit_rate >>
        r.l4_hit_rate >> r.l4_reads >> r.l4_extra_lines >>
        r.l4_second_probes >> r.cip_read_accuracy >>
        r.cip_write_accuracy >> r.mapi_accuracy >> r.frac_invariant >>
        r.frac_bai >> r.frac_tsi >> r.avg_valid_lines >> r.l4_bytes >>
        r.mem_bytes >> r.avg_miss_latency >> r.energy.l4_nj >>
        r.energy.mem_nj >> r.energy.background_nj >> r.energy.total_nj >>
        r.energy.avg_power_w >> r.energy.edp >> r.energy.seconds >>
        n_cores;
    if (!in || n_cores == 0 || n_cores > 1024)
        return false;
    r.core_cycles.resize(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i)
        in >> r.core_cycles[i];
    return static_cast<bool>(in);
}

/**
 * In-process result memo. Guarded by a shared mutex so parallel sweep
 * workers can look up and publish results concurrently; std::map node
 * stability makes the returned references permanently valid.
 */
struct ResultCache
{
    std::shared_mutex mu;
    std::map<std::string, RunResult> results;
};

ResultCache &
resultCache()
{
    static ResultCache cache;
    return cache;
}

/** References actually simulated this process (fresh cells only;
 *  cache-loaded cells do no simulation work). Feeds the progress
 *  line's refs/sec figure. */
std::atomic<std::uint64_t> g_simulated_refs{0};

/**
 * Export one freshly-simulated cell's stat registry when
 * DICE_STATS_JSON / DICE_STATS_CSV name output directories. Called
 * with the System still alive (the registry reads live counters).
 */
void
exportCellStats(const System &sys, const std::string &workload,
                const std::string &cache_key)
{
    const std::string json_dir = statsJsonDir();
    const std::string csv_dir = statsCsvDir();
    if (json_dir.empty() && csv_dir.empty())
        return;
    const std::string stem =
        sanitizeFileStem(workload + "_" + cache_key);
    std::error_code ec;
    if (!json_dir.empty()) {
        std::filesystem::create_directories(json_dir, ec);
        const auto path =
            std::filesystem::path(json_dir) / (stem + ".json");
        if (!sys.statRegistry().writeJson(path.string()))
            dice_warn("cannot write stats JSON %s", path.c_str());
    }
    if (!csv_dir.empty()) {
        std::filesystem::create_directories(csv_dir, ec);
        const auto path =
            std::filesystem::path(csv_dir) / (stem + ".csv");
        if (!sys.statRegistry().writeCsv(path.string()))
            dice_warn("cannot write stats CSV %s", path.c_str());
    }
}

/**
 * DICE_PROGRESS=1 progress line: one line per completed cell with the
 * sweep position, cumulative simulation throughput, and the arena's
 * residency. Serialized by its own mutex so parallel workers never
 * interleave; on a tty the line redraws in place.
 */
void
printProgress(std::size_t done, std::size_t total, double elapsed_s)
{
    const TraceArena::Stats arena = TraceArena::instance().stats();
    const double refs =
        static_cast<double>(g_simulated_refs.load(std::memory_order_relaxed));
    const double mrefs_per_s =
        elapsed_s > 0.0 ? refs / elapsed_s / 1e6 : 0.0;
#ifdef _WIN32
    const bool tty = false;
#else
    const bool tty = isatty(fileno(stderr)) != 0;
#endif
    static std::mutex mu;
    std::lock_guard lock(mu);
    std::fprintf(stderr,
                 "%s[progress] %zu/%zu cells | %.2f Mref/s | arena "
                 "%.1f MiB, %llu entries%s",
                 tty ? "\r" : "", done, total, mrefs_per_s,
                 static_cast<double>(arena.resident_bytes) /
                     (1024.0 * 1024.0),
                 static_cast<unsigned long long>(arena.entries),
                 tty ? (done == total ? "\n" : "") : "\n");
    std::fflush(stderr);
}

} // namespace

namespace detail
{

void
saveResult(const std::filesystem::path &path, const RunResult &r)
{
    // Unique temp name per process and call: concurrent writers (other
    // threads or other bench binaries) never collide, and readers only
    // ever see fully-written files because rename() is atomic within a
    // directory.
    static std::atomic<std::uint64_t> counter{0};
    const std::string payload = serializeResult(r);
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(static_cast<long>(getpid())) + "." +
           std::to_string(counter.fetch_add(1));

    {
        std::ofstream out(tmp);
        if (!out)
            return;
        out << payload << ' ' << fnv1a(payload) << '\n';
        if (!out)
            return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
}

bool
loadResult(const std::filesystem::path &path, RunResult &r)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    while (!content.empty() &&
           (content.back() == '\n' || content.back() == '\r'))
        content.pop_back();

    // The file is "<payload> <checksum>"; a truncated, stale (pre-v6),
    // or partially-written file fails the checksum and is a cache miss.
    const std::size_t sep = content.rfind(' ');
    if (sep == std::string::npos || sep + 1 >= content.size())
        return false;
    const std::string payload = content.substr(0, sep);
    errno = 0;
    char *end = nullptr;
    const std::uint64_t stored =
        std::strtoull(content.c_str() + sep + 1, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    if (stored != fnv1a(payload))
        return false;
    return parseResult(payload, r);
}

std::uint64_t
resultDigest(const RunResult &r)
{
    return fnv1a(serializeResult(r));
}

} // namespace detail

namespace
{

// ---------------------------------------------------------------------
// Distributed sweep engine (--serve M / --worker i/M / --batch B /
// --join DIR).
//
// The coordinator never sends cell data over a pipe: every
// participant re-runs the same deterministic binary, deterministically
// enumerates the same canonical cell vector, and publishes results
// through the shared persistent caches (bench_cache/ for RunResults,
// bench_cache/arena/ for reference streams). Which participant
// simulates which cell is decided by the work-stealing claim queue
// (bench/sweep_queue.hpp): everyone loops "claim next unowned cell →
// simulate → publish per-cell doc → release", crashed holders' leases
// expire and their cells are silently requeued, and extra --join
// workers (other processes, or other hosts sharing the filesystem)
// attach to the same queue mid-sweep. The coordinator then replays
// the batch as pure cache loads in canonical order, which makes its
// stdout, golden digests, and merged document byte-identical to a
// serial run no matter who computed what or how many times a cell was
// reclaimed.
//
// Every participant's only status file is its event journal
// (src/common/sweep_events.hpp); the coordinator's sweep_summary.json
// and timeline.json are one fold and one merge over those journals.

/** How this process participates in a sweep (set by initSweepMode). */
struct SweepMode
{
    enum class Role
    {
        Serial,      ///< No flags: in-process thread pool only.
        Coordinator, ///< --serve M: shards batches across workers.
        Worker,      ///< --worker i/M: claims cells of one batch.
        Join         ///< --join DIR: attaches to an in-flight sweep.
    };

    Role role = Role::Serial;
    unsigned workers = 0;           ///< M.
    unsigned worker_index = 0;      ///< i in [0, M); worker role only.
    unsigned long target_batch = 0; ///< The batch a worker owns.
    std::string self;               ///< argv[0], for re-spawning.
    std::string join_results;       ///< --join results directory.
    /** Original arguments minus the sweep flags (workers get these
     *  back so binary-specific flags survive the respawn). */
    std::vector<std::string> passthrough;
};

SweepMode &
sweepMode()
{
    static SweepMode mode;
    return mode;
}

/** Monotonic runCells batch index. Coordinator and workers run the
 *  same main(), so the same sequence numbers the same batches. */
std::atomic<unsigned long> g_batch_counter{0};

/**
 * Canonical cell registry: every cell every runCells batch has seen,
 * deduplicated, in first-appearance order. Identical across roles
 * (the enumeration is deterministic), so "index in this vector" is a
 * cross-process cell identity and the merged document's row order.
 */
struct CellRecord
{
    std::string workload;
    SystemConfig config;
    std::string cache_key;
};

struct CellRegistry
{
    std::mutex mu;
    std::vector<CellRecord> order;
    std::unordered_set<std::string> seen;
};

CellRegistry &
cellRegistry()
{
    static CellRegistry reg;
    return reg;
}

void
registerCells(const std::vector<const SimCell *> &work)
{
    CellRegistry &reg = cellRegistry();
    std::lock_guard lock(reg.mu);
    for (const SimCell *c : work) {
        if (reg.seen.insert(c->workload + "|" + c->cache_key).second)
            reg.order.push_back(
                CellRecord{c->workload, c->config, c->cache_key});
    }
}

/** Sweep results directory (per-cell docs, leases, journals). */
std::filesystem::path
resultsDir()
{
    const std::string env = sweepResultsDir();
    if (!env.empty())
        return env;
    return cacheDir() / "results";
}

/** File stem naming a cell's per-cell doc and lease. */
std::string
cellStem(const SimCell &c)
{
    return sanitizeFileStem(c.workload + "_" + c.cache_key);
}

/**
 * Expected simulation cost of a cell, in arbitrary comparable units:
 * trace length × cores × an organization weight. Only the *ordering*
 * matters — the claim queue hands out the longest-expected cells
 * first so the batch's expensive tail never lands late on an
 * already-loaded worker.
 */
double
cellCost(const SimCell &c)
{
    const SystemConfig &cfg = c.config;
    double cost = static_cast<double>(cfg.warmup_refs_per_core +
                                      cfg.refs_per_core) *
                  std::max<std::uint32_t>(1, cfg.num_cores);
    // Compressed organizations run codec sizing on every install, so
    // their cells simulate measurably slower than the uncompressed
    // baseline; no L4 at all is cheaper still.
    const std::string &org = cfg.l4.organization;
    double weight = 1.0;
    if (org == "none")
        weight = 0.5;
    else if (org != "alloy")
        weight = 1.5;
    // Larger L4s take longer to warm and serve more hits per ref.
    const double cap_ratio =
        static_cast<double>(cfg.l4.base.capacity) / (8.0 * 1024 * 1024);
    if (cap_ratio > 1.0)
        weight *= 1.0 + 0.25 * std::log2(cap_ratio);
    return cost * weight;
}

/** The batch's cells as claim-queue entries (canonical order). */
std::vector<QueueCell>
queueCellsFor(const std::vector<const SimCell *> &work)
{
    std::vector<QueueCell> cells;
    cells.reserve(work.size());
    for (std::size_t i = 0; i < work.size(); ++i)
        cells.push_back(
            QueueCell{cellStem(*work[i]), i, cellCost(*work[i])});
    return cells;
}

/**
 * One cell as a JSON object: identity, golden digest, and every
 * RunResult field. Rendered only from the (cache-round-trip-exact)
 * RunResult — never from the StatRegistry, whose process-global
 * trace_arena group depends on execution order — so serial and
 * distributed runs render identical bytes.
 */
std::string
resultJson(const std::string &workload, const std::string &org,
           const RunResult &r)
{
    std::string out = "{\"workload\": \"";
    appendJsonEscaped(out, workload);
    out += "\", \"org\": \"";
    appendJsonEscaped(out, org);
    out += "\", \"digest\": ";
    out += std::to_string(detail::resultDigest(r));
    out += ", \"stats\": {";

    bool first = true;
    const auto u64 = [&out, &first](const char *name, std::uint64_t v) {
        out += first ? "\"" : ", \"";
        first = false;
        out += name;
        out += "\": ";
        out += std::to_string(v);
    };
    const auto num = [&out, &first](const char *name, double v) {
        out += first ? "\"" : ", \"";
        first = false;
        out += name;
        out += "\": ";
        appendJsonNumber(out, v);
    };
    u64("cycles", r.cycles);
    u64("instructions", r.instructions);
    num("ipc", r.ipc);
    num("l3_hit_rate", r.l3_hit_rate);
    num("l4_hit_rate", r.l4_hit_rate);
    u64("l4_reads", r.l4_reads);
    u64("l4_extra_lines", r.l4_extra_lines);
    u64("l4_second_probes", r.l4_second_probes);
    num("cip_read_accuracy", r.cip_read_accuracy);
    num("cip_write_accuracy", r.cip_write_accuracy);
    num("mapi_accuracy", r.mapi_accuracy);
    num("frac_invariant", r.frac_invariant);
    num("frac_bai", r.frac_bai);
    num("frac_tsi", r.frac_tsi);
    num("avg_valid_lines", r.avg_valid_lines);
    u64("l4_bytes", r.l4_bytes);
    u64("mem_bytes", r.mem_bytes);
    num("avg_miss_latency", r.avg_miss_latency);
    num("energy_l4_nj", r.energy.l4_nj);
    num("energy_mem_nj", r.energy.mem_nj);
    num("energy_background_nj", r.energy.background_nj);
    num("energy_total_nj", r.energy.total_nj);
    num("energy_avg_power_w", r.energy.avg_power_w);
    num("energy_edp", r.energy.edp);
    num("energy_seconds", r.energy.seconds);
    out += ", \"core_cycles\": [";
    for (std::size_t i = 0; i < r.core_cycles.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(r.core_cycles[i]);
    }
    out += "]}}";
    return out;
}

/** Whether this process writes into a sweep results directory: every
 *  distributed role, and a serial run that sets DICE_SWEEP_RESULTS. */
bool
writesSweepResults()
{
    return sweepMode().role != SweepMode::Role::Serial ||
           !sweepResultsDir().empty();
}

/**
 * Open this process's event journal (once) when it writes into a
 * results directory. The participant name matches the role:
 * "coordinator", "worker<i>", "join<pid>", or "serial". The
 * coordinator (or a serial run) owns the results directory, so it
 * clears journals left by a previous run of the same directory first
 * — workers and --join attachers append (a respawned worker's later
 * batches become new segments of the same journal).
 */
void
maybeOpenSweepJournal()
{
    static bool attempted = false;
    if (attempted || !writesSweepResults())
        return;
    attempted = true;
    const SweepMode &m = sweepMode();
    std::string name = "serial";
    bool owner = true;
    switch (m.role) {
      case SweepMode::Role::Coordinator:
        name = "coordinator";
        break;
      case SweepMode::Role::Worker:
        name = "worker" + std::to_string(m.worker_index);
        owner = false;
        break;
      case SweepMode::Role::Join:
        name = "join" + std::to_string(claimPid());
        owner = false;
        break;
      case SweepMode::Role::Serial:
        break;
    }
    const std::filesystem::path events = resultsDir() / "events";
    if (owner) {
        std::error_code ec;
        std::filesystem::directory_iterator it(events, ec);
        if (!ec) {
            std::vector<std::filesystem::path> stale;
            for (const auto &entry : it) {
                if (entry.path().extension() == ".jsonl")
                    stale.push_back(entry.path());
            }
            for (const std::filesystem::path &p : stale)
                std::filesystem::remove(p, ec);
        }
    }
    SweepJournal::instance().open(events, name);
}

#ifndef _WIN32

/** The coordinator's single aggregated progress line (stderr). */
void
printSweepProgress(unsigned long batch, std::size_t done,
                   std::size_t total, unsigned workers,
                   std::size_t alive, bool final_line)
{
    const bool tty = isatty(fileno(stderr)) != 0;
    std::fprintf(stderr,
                 "%s[sweep] batch %lu: %zu/%zu cells | %u workers, "
                 "%zu alive%s",
                 tty ? "\r" : "", batch, done, total, workers, alive,
                 tty ? (final_line ? "\n" : "") : "\n");
    std::fflush(stderr);
}

pid_t
spawnWorker(unsigned index, unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::vector<std::string> args;
    args.push_back(m.self);
    args.insert(args.end(), m.passthrough.begin(), m.passthrough.end());
    args.push_back("--worker");
    args.push_back(std::to_string(index) + "/" +
                   std::to_string(m.workers));
    args.push_back("--batch");
    args.push_back(std::to_string(batch));

    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // The spawn mark goes to the journal *before* the spawn itself:
    // the timeline merge uses "a worker's epoch cannot precede its
    // spawn mark" as a hard causal constraint when aligning clocks,
    // which only holds if the mark is durable first.
    SweepJournal::instance().mark("spawn",
                                  "worker" + std::to_string(index));

    // Workers would duplicate the coordinator's stdout tables; their
    // real output is the shared caches and the results directory.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    pid_t pid = -1;
    const int rc =
        posix_spawnp(&pid, m.self.c_str(), &fa, nullptr, argv.data(),
                     environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        // No special case: the unspawned worker's cells simply stay in
        // the claim queue for the remaining participants.
        dice_warn("sweep: cannot spawn worker %u (%s)", index,
                  std::strerror(rc));
        return -1;
    }
    return pid;
}

#endif // !_WIN32

/** One histogram as a JSON object of its summary statistics. */
void
appendHistJson(std::string &out, const LogHistogram &h)
{
    out += "{\"count\": ";
    out += std::to_string(h.count());
    out += ", \"sum_us\": ";
    out += std::to_string(h.sum());
    out += ", \"mean_us\": ";
    appendJsonNumber(out, h.mean());
    out += ", \"max_us\": ";
    out += std::to_string(h.max());
    out += ", \"p50_us\": ";
    appendJsonNumber(out, h.percentile(0.50));
    out += ", \"p90_us\": ";
    appendJsonNumber(out, h.percentile(0.90));
    out += ", \"p99_us\": ";
    appendJsonNumber(out, h.percentile(0.99));
    out += "}";
}

/**
 * The machine-readable sweep summary: trace-generation accounting plus
 * the scheduling record (who claimed, stole, and requeued what, and
 * how busy each participant was). Not part of the byte-identical
 * contract — it reports *how* the run executed, which legitimately
 * differs between serial and distributed runs; CI uses it to prove a
 * warm arena rerun generated zero streams and that a skewed sweep
 * actually stole work.
 *
 * Everything per-participant is one fold over the journals
 * (foldSweepJournals): this process's own journal is the
 * "coordinator" record, every other journal a worker. The phase
 * histograms merge exactly (fixed power-of-two bucket edges), so the
 * percentiles are what one process sampling every cell would report.
 */
void
writeSweepSummary()
{
    const std::vector<ParticipantFold> folds =
        foldSweepJournals(resultsDir() / "events");
    const std::string &self = SweepJournal::instance().participant();
    ParticipantFold all, own, workers;
    for (const ParticipantFold &p : folds) {
        all.merge(p);
        (p.name == self ? own : workers).merge(p);
    }

    std::string out = "{\n \"batches\": ";
    out += std::to_string(g_batch_counter.load());
    out += ",\n \"cells\": ";
    {
        CellRegistry &reg = cellRegistry();
        std::lock_guard lock(reg.mu);
        out += std::to_string(reg.order.size());
    }
    out += ",\n \"scheduler\": \"queue\",\n \"stolen\": ";
    out += std::to_string(all.stolen);
    out += ",\n \"requeued\": ";
    out += std::to_string(all.requeued);
    out += ",\n \"coordinator\": {\"generations\": ";
    out += std::to_string(own.generations);
    out += ", \"disk_hits\": ";
    out += std::to_string(own.disk_hits);
    out += ", \"spills\": ";
    out += std::to_string(own.spills);
    out += ", \"cells\": ";
    out += std::to_string(own.cells);
    out += ", \"stolen\": ";
    out += std::to_string(own.stolen);
    out += ", \"requeued\": ";
    out += std::to_string(own.requeued);
    out += ", \"busy_s\": ";
    appendJsonNumber(out, own.busy_us / 1e6);
    out += ", \"span_s\": ";
    appendJsonNumber(out, own.span_us / 1e6);
    out += ", \"utilization\": ";
    appendJsonNumber(out, own.utilization());
    out += "},\n \"workers\": {\"cells\": ";
    out += std::to_string(workers.cells);
    out += ", \"generations\": ";
    out += std::to_string(workers.generations);
    out += ", \"disk_hits\": ";
    out += std::to_string(workers.disk_hits);
    out += ", \"spills\": ";
    out += std::to_string(workers.spills);
    out += ", \"stolen\": ";
    out += std::to_string(workers.stolen);
    out += ", \"requeued\": ";
    out += std::to_string(workers.requeued);
    out += ", \"busy_s\": ";
    appendJsonNumber(out, workers.busy_us / 1e6);
    out += ", \"utilization\": ";
    appendJsonNumber(out, workers.utilization());
    out += "},\n \"per_worker\": [";
    bool first = true;
    for (const ParticipantFold &p : folds) {
        if (p.name == self)
            continue;
        out += first ? "\n  " : ",\n  ";
        first = false;
        out += "{\"name\": \"";
        appendJsonEscaped(out, p.name);
        out += "\", \"cells\": ";
        out += std::to_string(p.cells);
        out += ", \"stolen\": ";
        out += std::to_string(p.stolen);
        out += ", \"requeued\": ";
        out += std::to_string(p.requeued);
        out += ", \"busy_s\": ";
        appendJsonNumber(out, p.busy_us / 1e6);
        out += ", \"span_s\": ";
        appendJsonNumber(out, p.span_us / 1e6);
        out += ", \"jobs\": ";
        out += std::to_string(p.jobs);
        out += ", \"utilization\": ";
        appendJsonNumber(out, p.utilization());
        out += ", \"cell_us\": ";
        appendHistJson(out,
                       p.phases[static_cast<unsigned>(SweepPhase::Cell)]);
        out += "}";
    }
    out += first ? "],\n \"phase_latency_us\": {"
                 : "\n ],\n \"phase_latency_us\": {";
    for (unsigned i = 0; i < kSweepPhases; ++i) {
        out += i == 0 ? "\n  \"" : ",\n  \"";
        out += sweepPhaseName(static_cast<SweepPhase>(i));
        out += "\": ";
        appendHistJson(out, all.phases[i]);
    }
    out += "\n },\n \"slowest_cell\": {\"cell\": \"";
    appendJsonEscaped(out, all.slowest_cell);
    out += "\", \"us\": ";
    out += std::to_string(all.slowest_us);
    out += "},\n \"warnings\": [";
    {
        const std::vector<std::string> warnings = sweepAnomalyWarnings(
            all.phases[static_cast<unsigned>(SweepPhase::Cell)],
            all.slowest_cell, all.slowest_us, all.requeued, all.cells,
            sweepStragglerK());
        bool first_warn = true;
        for (const std::string &w : warnings) {
            out += first_warn ? "\n  \"" : ",\n  \"";
            first_warn = false;
            appendJsonEscaped(out, w);
            out += "\"";
            // Only a distributed run's coordinator escalates to
            // stderr — a serial run exporting a summary keeps the
            // anomalies in the JSON alone.
            if (sweepMode().role == SweepMode::Role::Coordinator)
                dice_warn("sweep: %s", w.c_str());
        }
        out += first_warn ? "]" : "\n ]";
    }
    out += ",\n \"total_generations\": ";
    out += std::to_string(all.generations);
    out += "\n}\n";
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    atomicWriteFile(resultsDir() / "sweep_summary.json", out);
}

/**
 * Rewrite the canonical merged document (DICE_SWEEP_MERGED) from the
 * cell registry after a batch. Every row is a memo/cache hit by now,
 * so this costs one JSON render. Cumulative: the file always covers
 * every cell any batch so far has run.
 */
void
writeSweepOutputs()
{
    const std::string merged = sweepMergedPath();
    if (!merged.empty()) {
        std::vector<CellRecord> order;
        {
            CellRegistry &reg = cellRegistry();
            std::lock_guard lock(reg.mu);
            order = reg.order;
        }
        std::string out = "{\"version\": 1, \"cells\": [";
        bool first = true;
        for (const CellRecord &c : order) {
            const RunResult &r =
                runWorkload(c.workload, c.config, c.cache_key);
            out += first ? "\n " : ",\n ";
            first = false;
            out += resultJson(c.workload, c.cache_key, r);
        }
        out += "\n]}\n";
        if (!atomicWriteFile(merged, out))
            dice_warn("sweep: cannot write DICE_SWEEP_MERGED=%s",
                      merged.c_str());
    }
    if (!writesSweepResults())
        return;
    writeSweepSummary();

    // Merge every participant's event journal into one Chrome trace
    // after each batch (cheap: journals are small), so the timeline is
    // inspectable mid-sweep and survives a killed coordinator. The
    // standalone bench/sweep_timeline tool re-runs the same merge.
    std::string error;
    if (!mergeSweepTimeline(resultsDir() / "events",
                            resultsDir() / "timeline.json", &error))
        dice_warn("sweep: timeline merge failed: %s", error.c_str());
}

/** The classic engine: a benchJobs()-sized in-process thread pool. */
void
runCellsSerial(const std::vector<const SimCell *> &work,
               bool progress_allowed)
{
    const bool progress = progress_allowed && progressEnabled();
    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> done{0};
    parallelFor(work.size(), benchJobs(),
                [&work, &done, progress, t0](std::size_t i) {
        runWorkload(work[i]->workload, work[i]->config,
                    work[i]->cache_key);
        if (progress) {
            const std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            printProgress(d, work.size(), elapsed);
        }
    });
}

/** Microseconds elapsed since @p t0. */
std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

#ifndef _WIN32

/**
 * One participant's claim loop against @p q, run as @p jobs parallel
 * loops: claim the most expensive unowned cell, simulate it, publish
 * its document, repeat. When nothing is claimable the loop polls until
 * the batch completes — a live peer may still crash and requeue its
 * cells, and those must not be orphaned.
 */
void
drainSweepQueue(SweepQueue &q, const std::vector<const SimCell *> &work,
                unsigned jobs)
{
    parallelFor(jobs, jobs, [&](std::size_t) {
        // How long this claim loop has been idle: feeds the
        // claim-wait latency histogram and the journal's claim events
        // (the distributed analogue of run-queue wait).
        auto free_since = std::chrono::steady_clock::now();
        for (;;) {
            const std::optional<std::size_t> idx =
                q.claimNext(elapsedUs(free_since));
            if (!idx) {
                if (q.complete())
                    return;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                continue;
            }
            const SimCell *c = work[q.cell(*idx).canonical_index];
            const RunResult &r =
                runWorkload(c->workload, c->config, c->cache_key);
            q.publish(*idx,
                      resultJson(c->workload, c->cache_key, r) + "\n");
            free_since = std::chrono::steady_clock::now();
        }
    });
}

/**
 * Run one batch as a claim-queue participant whose nominal static
 * shard is @p home_shard of @p shard_count (0 ⇒ no shard; every claim
 * counts as stolen), then journal the batch record that closes it.
 */
void
runCellsQueueParticipant(const std::vector<const SimCell *> &work,
                         unsigned long batch, unsigned home_shard,
                         unsigned shard_count)
{
    std::error_code ec;
    std::filesystem::create_directories(resultsDir(), ec);
    SweepQueue q(resultsDir(), queueCellsFor(work), home_shard,
                 shard_count);
    const unsigned jobs = benchJobs();
    const auto t0 = std::chrono::steady_clock::now();
    drainSweepQueue(q, work, jobs);
    SweepJournal::instance().batch(batch, work.size(), jobs,
                                   elapsedUs(t0));
}

/**
 * Worker role: batches before the target were already merged into the
 * persistent cache by the coordinator, so they replay as loads; the
 * target batch drains the shared claim queue, then the worker exits
 * before the bench main can print anything or touch later batches.
 */
void
runCellsWorker(const std::vector<const SimCell *> &work,
               unsigned long batch)
{
    const SweepMode &m = sweepMode();
    if (batch != m.target_batch) {
        runCellsSerial(work, /*progress_allowed=*/false);
        return;
    }

    runCellsQueueParticipant(work, batch, m.worker_index, m.workers);
    std::exit(0);
}

/**
 * Coordinator role: reset the batch's cells (documents left by a
 * previous run must not masquerade as done), spawn M workers, and
 * monitor the queue. While workers live the coordinator only reaps
 * and reports progress — a worker that dies abnormally just abandons
 * its leases, which expire and requeue to the survivors. Only when
 * *every* worker is gone does the coordinator drain the remainder
 * itself (also the degenerate path when spawning fails entirely).
 * Then it merges by replaying the batch as cache loads in canonical
 * order, which keeps stdout and the merged document byte-identical to
 * a serial run.
 */
void
runCellsCoordinator(const std::vector<const SimCell *> &work,
                    unsigned long batch)
{
    const SweepMode &m = sweepMode();
    std::error_code ec;
    std::filesystem::create_directories(resultsDir() / "leases", ec);
    for (const SimCell *c : work)
        SweepQueue::resetCell(resultsDir(), cellStem(*c));

    std::vector<pid_t> pids;
    for (unsigned i = 0; i < m.workers; ++i) {
        const pid_t pid = spawnWorker(i, batch);
        if (pid > 0)
            pids.push_back(pid);
    }

    SweepQueue q(resultsDir(), queueCellsFor(work), 0, 0);
    const bool progress = progressEnabled();
    std::vector<bool> reaped(pids.size(), false);
    std::size_t alive = pids.size();
    for (;;) {
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (reaped[i])
                continue;
            int status = 0;
            if (waitpid(pids[i], &status, WNOHANG) == pids[i]) {
                reaped[i] = true;
                --alive;
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                    dice_warn("sweep: worker %zu died; its cells "
                              "return to the queue",
                              i);
            }
        }
        if (progress)
            printSweepProgress(batch, q.doneCount(), work.size(),
                               m.workers, alive, false);
        if (q.complete())
            break;
        if (alive == 0) {
            // Every worker is gone (crashed, or never spawned): the
            // coordinator claims and simulates what remains. Expired
            // leases of the dead are broken inside claimNext.
            drainSweepQueue(q, work, benchJobs());
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }
    // Workers exit on their own once they observe the batch complete.
    for (std::size_t i = 0; i < pids.size(); ++i) {
        if (!reaped[i]) {
            int status = 0;
            waitpid(pids[i], &status, 0);
        }
    }
    if (progress)
        printSweepProgress(batch, work.size(), work.size(), m.workers,
                           0, true);

    for (const SimCell *c : work)
        runWorkload(c->workload, c->config, c->cache_key);
}

#endif // !_WIN32

} // namespace

SystemConfig
defaultBase()
{
    SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.refs_per_core = refsPerCore();
    cfg.warmup_refs_per_core = refsPerCore() / 2;
    // 1/128-scale machine: an 8-MiB L4 stands in for the paper's
    // 1 GiB and a 64-KiB shared L3 for the paper's 8 MiB. Footprints
    // scale with reference_capacity so footprint/capacity pressure
    // matches Table 3, and the smaller caches reach steady state
    // within the scaled instruction budget.
    cfg.reference_capacity = 8_MiB;
    cfg.l3.size_bytes = 64_KiB;
    cfg.l4.base.capacity = 8_MiB;
    cfg.core.mshrs = 16;
    cfg.seed = 2017;
    return cfg;
}

SystemConfig
configureBaseline(SystemConfig base)
{
    base.l4.organization = "alloy";
    return base;
}

SystemConfig
configureOrganization(SystemConfig base, const std::string &org)
{
    dice_assert(L4Registry::instance().known(org),
                "unknown L4 organization '%s'", org.c_str());
    base.l4.organization = org;
    return base;
}

SystemConfig
configureCompressed(SystemConfig base, CompressionPolicy policy)
{
    base.l4.organization = policyName(policy);
    return base;
}

SystemConfig
configureDice(SystemConfig base)
{
    return configureCompressed(std::move(base), CompressionPolicy::Dice);
}

SystemConfig
configure2xCapacity(SystemConfig base)
{
    base.l4.organization = "alloy";
    base.l4.base.capacity *= 2;
    return base;
}

SystemConfig
configure2xBandwidth(SystemConfig base)
{
    base.l4.organization = "alloy";
    base.l4.base.timing.channels *= 2;
    return base;
}

SystemConfig
configure2xBoth(SystemConfig base)
{
    return configure2xBandwidth(configure2xCapacity(std::move(base)));
}

std::vector<std::string>
extraOrgNames()
{
    std::vector<std::string> out;
    const char *env = std::getenv("DICE_BENCH_ORGS");
    if (env == nullptr || *env == '\0')
        return out;
    std::string cur;
    for (const char *p = env;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty()) {
                dice_assert(L4Registry::instance().known(cur),
                            "DICE_BENCH_ORGS names unknown organization "
                            "'%s'",
                            cur.c_str());
                out.push_back(cur);
            }
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    return out;
}

std::vector<WorkloadProfile>
workloadProfiles(const std::string &name, std::uint32_t cores)
{
    if (name.rfind("mix", 0) == 0 && name.size() == 4) {
        const std::size_t idx =
            static_cast<std::size_t>(name[3] - '1');
        dice_assert(idx < mixSuite().size(), "bad mix name %s",
                    name.c_str());
        std::vector<WorkloadProfile> profiles = mixSuite()[idx];
        dice_assert(!profiles.empty(), "mix suite %s has no profiles",
                    name.c_str());
        // Copy the fill value out first: resize may reallocate, and
        // passing a reference into the vector being resized would
        // read a dangling element.
        const WorkloadProfile fill = profiles.front();
        profiles.resize(cores, fill);
        return profiles;
    }
    return std::vector<WorkloadProfile>(cores, profileByName(name));
}

unsigned
benchJobs()
{
    return jobsFromEnv("DICE_BENCH_JOBS");
}

const RunResult &
runWorkload(const std::string &workload, const SystemConfig &config,
            const std::string &cache_key)
{
    ResultCache &rc = resultCache();
    const std::string key = workload + "|" + cache_key;
    {
        std::shared_lock lock(rc.mu);
        const auto it = rc.results.find(key);
        if (it != rc.results.end())
            return it->second;
    }

    const std::filesystem::path file =
        cacheDir() / resultFileName(workload, config, cache_key);
    RunResult computed;
    bool loaded = false;
    if (cacheEnabled()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir(), ec);
        loaded = detail::loadResult(file, computed);
    }
    if (!loaded) {
        // The per-cell announcement honors DICE_LOG_LEVEL=quiet and
        // yields to the progress line when DICE_PROGRESS is set.
        if (logLevel() >= LogLevel::Warn && !progressEnabled()) {
            std::fprintf(stderr, "[sim] %s / %s ...\n", workload.c_str(),
                         cache_key.c_str());
        }
        const std::string stem =
            sanitizeFileStem(workload + "_" + cache_key);
        JournalSpan cell_span("cell", stem);
        std::vector<WorkloadProfile> profiles =
            workloadProfiles(workload, config.num_cores);
        // Reference streams depend only on (workload, seed, cores,
        // capacity, length), never on the L4 organization: the
        // process-wide TraceArena generates each stream once and every
        // organization column replays it.
        std::shared_ptr<const TraceSet> replay;
        {
            JournalSpan span("generate", stem);
            // +1: the simulator primes one reference ahead of the
            // warmup + measurement budget.
            replay = TraceArena::instance().acquire(
                workload, config.seed, config.num_cores,
                config.reference_capacity,
                config.warmup_refs_per_core + config.refs_per_core + 1,
                profiles, benchJobs());
        }
        System sys(config, std::move(profiles), std::move(replay));
        {
            JournalSpan span("simulate", stem);
            computed = sys.run();
        }
        {
            JournalSpan span("export", stem);
            exportCellStats(sys, workload, cache_key);
        }
        g_simulated_refs.fetch_add(
            (config.warmup_refs_per_core + config.refs_per_core) *
                config.num_cores,
            std::memory_order_relaxed);
    }

    std::pair<std::map<std::string, RunResult>::iterator, bool> pub;
    {
        std::unique_lock lock(rc.mu);
        // First publisher wins; a racing duplicate computed the same
        // bits anyway (the simulation is deterministic).
        pub = rc.results.emplace(key, std::move(computed));
    }
    if (pub.second && !loaded && cacheEnabled())
        detail::saveResult(file, pub.first->second);
    return pub.first->second;
}

void
initSweepMode(int argc, char **argv)
{
    SweepMode &m = sweepMode();
    m = SweepMode{};
    if (argc > 0 && argv[0] != nullptr)
        m.self = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i] != nullptr ? argv[i] : "";
        if (arg == "--serve" && i + 1 < argc) {
            m.role = SweepMode::Role::Coordinator;
            m.workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--worker" && i + 1 < argc) {
            m.role = SweepMode::Role::Worker;
            char *end = nullptr;
            m.worker_index = static_cast<unsigned>(
                std::strtoul(argv[++i], &end, 10));
            m.workers =
                end != nullptr && *end == '/'
                    ? static_cast<unsigned>(
                          std::strtoul(end + 1, nullptr, 10))
                    : 0;
        } else if (arg == "--batch" && i + 1 < argc) {
            m.target_batch = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--join" && i + 1 < argc) {
            m.role = SweepMode::Role::Join;
            m.join_results = argv[i + 1] != nullptr ? argv[i + 1] : "";
            ++i;
        } else {
            m.passthrough.push_back(arg);
        }
    }

    if (m.role == SweepMode::Role::Coordinator && m.workers < 2) {
        // One worker re-running the whole batch is pure overhead.
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Worker &&
        (m.workers == 0 || m.worker_index >= m.workers)) {
        dice_warn("sweep: bad --worker i/M spec; running serially");
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Join && m.join_results.empty()) {
        dice_warn("sweep: --join needs a results directory; "
                  "running serially");
        m.role = SweepMode::Role::Serial;
    }
#ifdef _WIN32
    if (m.role != SweepMode::Role::Serial) {
        dice_warn("sweep: --serve/--worker/--join are POSIX-only; "
                  "running serially");
        m.role = SweepMode::Role::Serial;
    }
#else
    if (m.role == SweepMode::Role::Coordinator && !cacheEnabled()) {
        dice_warn("sweep: --serve shares work through the persistent "
                  "cache; unset DICE_BENCH_NO_CACHE. Running serially");
        m.role = SweepMode::Role::Serial;
    }
    if (m.role == SweepMode::Role::Join) {
        // The attached sweep's claim queue lives in its results
        // directory; point this process's sweep plumbing there.
        setenv("DICE_SWEEP_RESULTS", m.join_results.c_str(), 1);
        // Participants exchange results through the persistent bench
        // cache; an attaching worker must share the sweep's cache. By
        // default the results dir is <cache>/results, so infer the
        // cache from the parent unless the caller said otherwise.
        if (std::getenv("DICE_BENCH_CACHE_DIR") == nullptr) {
            const std::filesystem::path parent =
                std::filesystem::path(m.join_results).parent_path();
            if (!parent.empty())
                setenv("DICE_BENCH_CACHE_DIR",
                       parent.string().c_str(), 1);
        }
        if (!cacheEnabled()) {
            dice_warn("sweep: --join shares work through the "
                      "persistent cache; unset DICE_BENCH_NO_CACHE. "
                      "Running serially");
            m.role = SweepMode::Role::Serial;
        } else if (std::freopen("/dev/null", "w", stdout) == nullptr) {
            // The owning coordinator prints the tables; a join worker
            // duplicating them would corrupt redirected sweep output.
            dice_warn("sweep: cannot silence --join stdout");
        }
    }
#endif
}

void
runCells(const std::vector<SimCell> &cells)
{
    // Dedupe by memo key so a racing pair never simulates twice. The
    // resulting first-appearance order is the batch's canonical cell
    // order, shared by every role of a distributed sweep.
    std::unordered_set<std::string> seen;
    std::vector<const SimCell *> work;
    work.reserve(cells.size());
    for (const SimCell &c : cells) {
        if (seen.insert(c.workload + "|" + c.cache_key).second)
            work.push_back(&c);
    }
    registerCells(work);
    const unsigned long batch = g_batch_counter.fetch_add(1);
    maybeOpenSweepJournal();

    const auto t0 = std::chrono::steady_clock::now();
#ifndef _WIN32
    const SweepMode &m = sweepMode();
    if (m.role == SweepMode::Role::Worker) {
        runCellsWorker(work, batch); // exits after its target batch
        return;
    }
    if (m.role == SweepMode::Role::Join) {
        // A join worker is a pure extra pair of hands: it feeds the
        // shared caches, per-cell documents, and its journal; the
        // owning coordinator writes the merged document and summary.
        runCellsQueueParticipant(work, batch, 0, 0);
        return;
    }
    if (m.role == SweepMode::Role::Coordinator)
        runCellsCoordinator(work, batch);
    else
        runCellsSerial(work, /*progress_allowed=*/true);
#else
    runCellsSerial(work, /*progress_allowed=*/true);
#endif
    SweepJournal::instance().batch(batch, work.size(), benchJobs(),
                                   elapsedUs(t0));
    writeSweepOutputs();
}

void
runSweep(const std::vector<std::string> &workloads,
         const std::vector<OrgCell> &orgs)
{
    std::vector<SimCell> cells;
    cells.reserve(workloads.size() * orgs.size());
    for (const OrgCell &org : orgs) {
        for (const std::string &w : workloads)
            cells.push_back(SimCell{w, org.config, org.cache_key});
    }
    runCells(cells);
}

double
speedupOver(const std::string &workload, const SystemConfig &base_cfg,
            const std::string &base_key, const SystemConfig &test_cfg,
            const std::string &test_key)
{
    const RunResult &base = runWorkload(workload, base_cfg, base_key);
    const RunResult &test = runWorkload(workload, test_cfg, test_key);
    return weightedSpeedup(base, test);
}

const std::vector<std::string> &
rateNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &p : specRateSuite())
            v.push_back(p.name);
        return v;
    }();
    return names;
}

const std::vector<std::string> &
mixNames()
{
    static const std::vector<std::string> names = {"mix1", "mix2", "mix3",
                                                   "mix4"};
    return names;
}

const std::vector<std::string> &
gapNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &p : gapSuite())
            v.push_back(p.name);
        return v;
    }();
    return names;
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> all;
    for (const auto *group : {&rateNames(), &mixNames(), &gapNames()})
        all.insert(all.end(), group->begin(), group->end());
    return all;
}

double
geomeanOver(const std::vector<std::string> &names,
            const std::map<std::string, double> &values)
{
    std::vector<double> vals;
    for (const auto &n : names) {
        const auto it = values.find(n);
        dice_assert(it != values.end(), "missing value for %s",
                    n.c_str());
        vals.push_back(it->second);
    }
    return geomean(vals);
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================"
                "============================\n");
}

void
printColumns(const std::vector<std::string> &names)
{
    std::printf("%-12s", "workload");
    for (const auto &n : names)
        std::printf(" %12s", n.c_str());
    std::printf("\n");
}

void
printRow(const std::string &name, const std::vector<double> &values,
         const std::vector<std::string> &suffix)
{
    std::printf("%-12s", name.c_str());
    for (double v : values)
        std::printf(" %12.3f", v);
    for (const auto &s : suffix)
        std::printf(" %s", s.c_str());
    std::printf("\n");
}

} // namespace dice::bench
