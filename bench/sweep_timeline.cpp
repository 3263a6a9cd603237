/**
 * @file
 * Standalone sweep-timeline merger.
 *
 * Usage: sweep_timeline <results_dir> [out.json]
 *
 * Reads every participant event journal under <results_dir>/events
 * (every process that writes a sweep results directory keeps one) and
 * merges them into one Chrome trace-event document — a process lane
 * per participant and a thread lane per journalling thread, clocks
 * aligned across processes/hosts — at out.json
 * (default: <results_dir>/timeline.json). Load the output in
 * chrome://tracing or https://ui.perfetto.dev.
 *
 * The sweep coordinator runs the same merge automatically after every
 * batch; this tool exists for post-mortems (the coordinator died, or
 * the journals came from another machine) and for re-merging after
 * --join workers appended more events.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/sweep_events.hpp"

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3) {
        std::fprintf(stderr,
                     "usage: %s <results_dir> [out.json]\n"
                     "  merges <results_dir>/events/*.jsonl into one "
                     "Chrome trace-event file\n",
                     argv[0]);
        return 2;
    }
    const std::filesystem::path results_dir = argv[1];
    const std::filesystem::path out =
        argc == 3 ? std::filesystem::path(argv[2])
                  : results_dir / "timeline.json";

    std::string error;
    dice::TimelineStats stats;
    if (!dice::mergeSweepTimeline(results_dir / "events", out, &error,
                                  &stats)) {
        std::fprintf(stderr, "sweep_timeline: %s\n", error.c_str());
        return 1;
    }
    std::printf("merged %zu participant journal(s), %zu event(s) -> %s\n",
                stats.participants, stats.events,
                out.string().c_str());
    return 0;
}
