/**
 * @file
 * Generic sweep driver for distributed runs.
 *
 * Unlike the figure/table binaries, which hard-code one paper plot,
 * this driver takes the sweep shape from the command line, so CI and
 * cluster jobs can run an arbitrary slice serially or sharded and
 * byte-diff the outputs:
 *
 *   sweep_server --sweep fig10 --workloads mcf,lbm --refs 2000
 *   sweep_server --serve 3 --sweep fig10 ...    # 3-worker distributed
 *   sweep_server --join DIR --sweep fig10 ...   # attach extra hands
 *
 * --serve M spawns M workers that drain a shared work-stealing claim
 * queue (see bench/sweep_queue.hpp); --join RESULTS_DIR attaches this
 * process — from this host or any other sharing the filesystem — to
 * an in-flight sweep's queue as an extra worker (pass the same
 * --sweep/--workloads/--refs so it enumerates the same cells). Every
 * participant journals its events under <results>/events/, and the
 * coordinator folds them into <results>/sweep_summary.json and
 * <results>/timeline.json (see bench/harness.hpp).
 *
 * Flags (besides the --serve/--worker/--batch/--join sweep flags):
 *   --sweep NAME      Organization set: "fig10" (base/tsi/bai/dice/
 *                     2x2x, the default), "quick" (base/dice), or
 *                     "zoo" (every registry organization: base/tsi/
 *                     bai/dice/scc/banshee/touche). The fig10 cells
 *                     keep the same cache keys in both sweeps, so
 *                     their digest lines byte-diff clean across them.
 *   --workloads CSV   Comma-separated workload names (default: the
 *                     full 26-workload evaluation suite).
 *   --refs N          Shorthand for DICE_BENCH_REFS=N.
 *
 * stdout is one "workload org digest" line per cell, in a fixed
 * order independent of execution mode — identical bytes for a serial
 * and a sharded run of the same sweep. The arena accounting line goes
 * to stderr (it legitimately differs between modes).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads/trace_arena.hpp"

using namespace dice;
using namespace dice::bench;

namespace
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : csv) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep = "fig10";
    std::string workloads_csv;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
            sweep = argv[++i];
        } else if (std::strcmp(argv[i], "--workloads") == 0 &&
                   i + 1 < argc) {
            workloads_csv = argv[++i];
        } else if (std::strcmp(argv[i], "--refs") == 0 && i + 1 < argc) {
#ifndef _WIN32
            setenv("DICE_BENCH_REFS", argv[++i], 1);
#else
            ++i;
#endif
        }
    }
    // After --refs: spawned workers re-parse the same flags, and the
    // env must be set before any SystemConfig is built below.
    initSweepMode(argc, argv);

    std::vector<OrgCell> orgs;
    const SystemConfig base = configureBaseline(defaultBase());
    if (sweep == "fig10") {
        orgs.push_back({base, "base"});
        orgs.push_back({configureCompressed(defaultBase(),
                                            CompressionPolicy::TsiOnly),
                        "tsi"});
        orgs.push_back({configureCompressed(defaultBase(),
                                            CompressionPolicy::BaiOnly),
                        "bai"});
        orgs.push_back({configureDice(defaultBase()), "dice"});
        orgs.push_back({configure2xBoth(defaultBase()), "2x2x"});
    } else if (sweep == "quick") {
        orgs.push_back({base, "base"});
        orgs.push_back({configureDice(defaultBase()), "dice"});
    } else if (sweep == "zoo") {
        // One column per registry organization. The first five reuse
        // the fig10 builders and cache keys, so a zoo sweep's digest
        // lines for them are byte-identical to a fig10 sweep's.
        orgs.push_back({base, "base"});
        orgs.push_back({configureCompressed(defaultBase(),
                                            CompressionPolicy::TsiOnly),
                        "tsi"});
        orgs.push_back({configureCompressed(defaultBase(),
                                            CompressionPolicy::BaiOnly),
                        "bai"});
        orgs.push_back({configureDice(defaultBase()), "dice"});
        for (const char *org : {"scc", "banshee", "touche"})
            orgs.push_back(
                {configureOrganization(defaultBase(), org), org});
    } else {
        std::fprintf(stderr, "sweep_server: unknown --sweep %s "
                             "(try fig10, quick, or zoo)\n",
                     sweep.c_str());
        return 2;
    }

    const std::vector<std::string> names =
        workloads_csv.empty() ? allNames() : splitList(workloads_csv);

    runSweep(names, orgs);

    for (const std::string &w : names) {
        for (const OrgCell &org : orgs) {
            const RunResult &r =
                runWorkload(w, org.config, org.cache_key);
            std::printf("%s %s %llu\n", w.c_str(),
                        org.cache_key.c_str(),
                        static_cast<unsigned long long>(
                            detail::resultDigest(r)));
        }
    }

    const TraceArena::Stats a = TraceArena::instance().stats();
    std::fprintf(stderr,
                 "arena: generations=%llu disk_hits=%llu spills=%llu\n",
                 static_cast<unsigned long long>(a.generations),
                 static_cast<unsigned long long>(a.disk_hits),
                 static_cast<unsigned long long>(a.spills));
    return 0;
}
