/**
 * @file
 * Scheduler microbenchmark: legacy static index sharding vs the
 * work-stealing claim queue (bench/sweep_queue.hpp), measured over
 * synthetic *sleep-cells* — each "simulation" is a nanosleep of the
 * cell's nominal duration. Sleeping workers do not contend for CPU,
 * so the makespan difference between the two schedulers is visible
 * even on a single-core CI host, where real CPU-bound workers would
 * serialize and erase any scheduling signal.
 *
 * The cell durations are a deterministic heavy-tailed mix (most cells
 * short, a few 10-20x long), which is exactly the shape of a real
 * sweep batch (compressed organizations and big-capacity cells
 * dominate). Static sharding's makespan is the unluckiest shard's sum;
 * the claim queue hands the tail out longest-first and every idle
 * worker steals, so its makespan approaches total/M + longest.
 *
 * Usage: micro_sched [--cells N] [--workers M] [--scale-ms S]
 *                    [--check]
 *
 * --check exits nonzero unless the queue scheduler beats static
 * sharding by at least 1.15x (CI smoke; the margin is deliberately
 * below the typical ~1.3-1.6x so scheduler regressions fail the gate
 * without flaking on timer jitter).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sweep_queue.hpp"

#include "common/log.hpp"

namespace
{

using dice::bench::QueueCell;
using dice::bench::SweepQueue;

/** Deterministic heavy-tailed duration (ms) for cell @p i. */
unsigned
cellMs(std::size_t i, unsigned scale_ms)
{
    // splitmix-style hash keeps the mix stable across builds.
    std::uint64_t x = i + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    const unsigned r = static_cast<unsigned>(x % 100);
    // 12% of cells are 10-22x long: the batch's expensive tail.
    const unsigned units = r < 12 ? 10 + static_cast<unsigned>(x % 13)
                                  : 1 + static_cast<unsigned>(x % 3);
    return units * scale_ms;
}

void
sleepMs(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Fork @p workers children running @p body(index); return the
 *  wall-clock seconds until the last child exits (the makespan). */
template <typename Body>
double
makespan(unsigned workers, Body body)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    for (unsigned w = 0; w < workers; ++w) {
        const pid_t pid = fork();
        if (pid == 0) {
            body(w);
            _exit(0);
        }
        if (pid > 0)
            pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        waitpid(pid, &status, 0);
    }
    return secondsSince(t0);
}

double
runStatic(std::size_t cells, unsigned workers, unsigned scale_ms)
{
    return makespan(workers, [cells, workers, scale_ms](unsigned w) {
        for (std::size_t i = w; i < cells; i += workers)
            sleepMs(cellMs(i, scale_ms));
    });
}

double
runQueue(const std::filesystem::path &dir, std::size_t cells,
         unsigned workers, unsigned scale_ms)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return makespan(workers, [&dir, cells, scale_ms](unsigned) {
        std::vector<QueueCell> qcells;
        qcells.reserve(cells);
        for (std::size_t i = 0; i < cells; ++i)
            qcells.push_back(QueueCell{
                "cell" + std::to_string(i), i,
                static_cast<double>(cellMs(i, scale_ms))});
        SweepQueue q(dir, std::move(qcells));
        for (;;) {
            const std::optional<std::size_t> idx = q.claimNext();
            if (!idx) {
                if (q.complete())
                    return;
                sleepMs(5);
                continue;
            }
            sleepMs(cellMs(q.cell(*idx).canonical_index, scale_ms));
            q.publish(*idx, "{}\n");
        }
    });
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t cells = 64;
    unsigned workers = 4;
    unsigned scale_ms = 15;
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cells" && i + 1 < argc)
            cells = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--workers" && i + 1 < argc)
            workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg == "--scale-ms" && i + 1 < argc)
            scale_ms = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg == "--check")
            check = true;
    }
    if (cells == 0 || workers == 0) {
        std::fprintf(stderr, "need --cells > 0 and --workers > 0\n");
        return 2;
    }

    double total_s = 0.0, longest_s = 0.0;
    std::vector<double> shard_s(workers, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
        const double s = cellMs(i, scale_ms) / 1000.0;
        total_s += s;
        longest_s = std::max(longest_s, s);
        shard_s[i % workers] += s;
    }
    double worst_shard_s = 0.0;
    for (const double s : shard_s)
        worst_shard_s = std::max(worst_shard_s, s);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("dice_micro_sched." + std::to_string(getpid()));

    const double static_s = runStatic(cells, workers, scale_ms);
    const double queue_s = runQueue(dir, cells, workers, scale_ms);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    const double speedup = queue_s > 0.0 ? static_s / queue_s : 0.0;
    std::printf("cells %zu  workers %u  scale %u ms\n", cells, workers,
                scale_ms);
    std::printf("work total      %7.3f s  (ideal makespan %.3f, "
                "longest cell %.3f)\n",
                total_s, total_s / workers, longest_s);
    std::printf("static makespan %7.3f s  (unluckiest shard %.3f)\n",
                static_s, worst_shard_s);
    std::printf("queue  makespan %7.3f s\n", queue_s);
    std::printf("speedup %.2fx\n", speedup);

    if (check && speedup < 1.15) {
        std::fprintf(stderr,
                     "FAIL: queue scheduler only %.2fx over static "
                     "(need >= 1.15x)\n",
                     speedup);
        return 1;
    }
    return 0;
}
