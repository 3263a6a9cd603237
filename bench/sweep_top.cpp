/**
 * @file
 * Live sweep status: a read-only `top` over a sweep results directory.
 *
 * Usage: sweep_top <results_dir> [--once] [--interval <seconds>]
 *
 * Renders, refreshed in place on a tty (or once with --once, for CI
 * and scripts):
 *  - the per-cell documents published so far, the publish rate, and
 *    the batches closed;
 *  - one row per participant: cells published, requeue count,
 *    busy time, utilization over its closed batches, and the cell
 *    currently in flight with its phase and elapsed time.
 *
 * Everything per-participant is the same journal fold
 * (foldSweepJournals over <results_dir>/events) the coordinator folds
 * into sweep_summary.json.
 *
 * Strictly read-only: it never removes, rewrites, or locks anything
 * under the results directory, so it is safe to point at a sweep
 * owned by another user or another host.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/sweep_events.hpp"

namespace
{

using dice::ParticipantFold;

std::uint64_t
nowWallUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string
humanSeconds(double s)
{
    char buf[32];
    if (s >= 3600.0)
        std::snprintf(buf, sizeof buf, "%.1fh", s / 3600.0);
    else if (s >= 60.0)
        std::snprintf(buf, sizeof buf, "%.1fm", s / 60.0);
    else
        std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
}

/** Published per-cell documents (<stem>.cell.json) under @p dir. */
std::size_t
countDocs(const std::filesystem::path &dir)
{
    static const std::string suffix = ".cell.json";
    std::size_t docs = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ++docs;
    }
    return docs;
}

void
render(const std::vector<ParticipantFold> &folds, std::size_t docs,
       double rate, bool clear)
{
    if (clear)
        std::printf("\033[H\033[2J");

    // The participant that closed the most batches (the coordinator,
    // once it has one) speaks for the sweep's batch progress.
    std::uint64_t batches = 0, batch_cells = 0;
    for (const ParticipantFold &p : folds) {
        if (p.batches > batches) {
            batches = p.batches;
            batch_cells = p.batch_cells;
        }
    }
    std::printf("[sweep_top] %zu cells published", docs);
    if (rate > 0.0)
        std::printf(" | %.2f cells/s", rate);
    std::printf(" | %llu batches closed (%llu cells)\n\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(batch_cells));
    std::printf("%-14s %8s %8s %8s %6s  %s\n", "participant", "cells",
                "requeue", "busy", "util", "in flight");

    const std::uint64_t now_us = nowWallUs();
    for (const ParticipantFold &p : folds) {
        std::string flight = "-";
        if (!p.in_flight_cell.empty()) {
            const double for_s =
                now_us > p.in_flight_since_wall_us
                    ? static_cast<double>(now_us -
                                          p.in_flight_since_wall_us) /
                          1e6
                    : 0.0;
            flight = p.in_flight_cell + " (" + p.in_flight_phase +
                     ", " + humanSeconds(for_s) + ")";
        }
        std::printf("%-14s %8llu %8llu %8s %6.2f  %s\n",
                    p.name.c_str(),
                    static_cast<unsigned long long>(p.cells),
                    static_cast<unsigned long long>(p.requeued),
                    humanSeconds(p.busy_us / 1e6).c_str(),
                    p.utilization(), flight.c_str());
    }
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::filesystem::path results_dir;
    bool once = false;
    double interval_s = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i] != nullptr ? argv[i] : "";
        if (arg == "--once") {
            once = true;
        } else if (arg == "--interval" && i + 1 < argc) {
            interval_s = std::strtod(argv[++i], nullptr);
            if (interval_s <= 0.0)
                interval_s = 1.0;
        } else if (results_dir.empty() && !arg.empty() &&
                   arg[0] != '-') {
            results_dir = arg;
        } else {
            std::fprintf(
                stderr,
                "usage: %s <results_dir> [--once] [--interval S]\n",
                argv[0]);
            return 2;
        }
    }
    if (results_dir.empty()) {
        std::fprintf(stderr,
                     "usage: %s <results_dir> [--once] [--interval S]\n",
                     argv[0]);
        return 2;
    }
    std::error_code ec;
    if (!std::filesystem::is_directory(results_dir, ec)) {
        std::fprintf(stderr, "sweep_top: %s is not a directory\n",
                     results_dir.string().c_str());
        return 1;
    }

    const bool tty = isatty(fileno(stdout)) != 0;
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t docs_at_start = countDocs(results_dir);
    for (;;) {
        const std::size_t docs = countDocs(results_dir);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const double rate =
            elapsed > 0.0 && docs > docs_at_start
                ? static_cast<double>(docs - docs_at_start) / elapsed
                : 0.0;
        render(dice::foldSweepJournals(results_dir / "events"), docs,
               rate, tty && !once);
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(interval_s));
    }
}
