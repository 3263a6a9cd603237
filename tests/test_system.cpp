/**
 * @file
 * Full-system integration tests: end-to-end data-version correctness
 * through L3 -> L4 -> memory, sane hit rates, the free-neighbor L3
 * benefit, determinism, and cross-organization sanity (DICE never
 * behind baseline on these small runs' hit rates).
 */

#include <gtest/gtest.h>

#include "sim/system.hpp"

namespace dice
{
namespace
{

SystemConfig
smallSystem(const std::string &organization)
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.refs_per_core = 20000;
    cfg.reference_capacity = 4_MiB;
    cfg.l3.size_bytes = 64_KiB;
    cfg.l4.organization = organization;
    cfg.l4.base.capacity = 4_MiB;
    cfg.seed = 3;
    return cfg;
}

std::vector<WorkloadProfile>
rateProfiles(const std::string &name, std::uint32_t cores)
{
    return std::vector<WorkloadProfile>(cores, profileByName(name));
}

TEST(System, RunsToCompletionAndCountsInstructions)
{
    System sys(smallSystem("alloy"), rateProfiles("soplex", 2));
    const RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.core_cycles.size(), 2u);
    EXPECT_GT(r.instructions, 2u * 20000u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(System, Deterministic)
{
    const auto run = [] {
        System sys(smallSystem("dice"),
                   rateProfiles("gcc", 2));
        return sys.run();
    };
    const RunResult a = run(), b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l4_reads, b.l4_reads);
    EXPECT_DOUBLE_EQ(a.l3_hit_rate, b.l3_hit_rate);
}

TEST(System, L4HitRateIsReasonableForCacheFriendlyWorkload)
{
    // sphinx's scaled footprint fits in the L4.
    System sys(smallSystem("alloy"), rateProfiles("sphinx", 2));
    const RunResult r = sys.run();
    EXPECT_GT(r.l4_hit_rate, 0.5);
}

TEST(System, ThrashingWorkloadHasLowHitRate)
{
    // mcf's scaled footprint is ~13x the L4.
    System sys(smallSystem("alloy"), rateProfiles("mcf", 2));
    const RunResult r = sys.run();
    EXPECT_LT(r.l4_hit_rate, 0.6);
}

TEST(System, VersionsFlowEndToEnd)
{
    // After a run, every line's latest written version must be
    // somewhere coherent: L3 (if dirty there), else L4, else memory.
    SystemConfig cfg = smallSystem("dice");
    cfg.refs_per_core = 5000;
    System sys(cfg, rateProfiles("gcc", 2));
    sys.run();

    // Sample lines that were written: their expected version must be
    // retrievable from the hierarchy state (L3 payload wins, then L4,
    // then memory).
    std::uint32_t checked = 0, correct = 0;
    for (LineAddr line = 0; line < (1u << 18) && checked < 500; ++line) {
        const std::uint64_t expect = sys.expectedVersion(line);
        if (expect == 0)
            continue;
        ++checked;
        std::uint64_t got = ~0ull;
        if (const auto l3v = sys.l3().payloadOf(line)) {
            got = *l3v;
        } else if (sys.l4() && sys.l4()->contains(line)) {
            const L4ReadResult r = sys.l4()->read(line, 0);
            got = r.payload;
        } else {
            got = sys.memory().versionOf(line);
        }
        correct += got == expect;
    }
    EXPECT_GT(checked, 50u);
    EXPECT_EQ(correct, checked);
}

TEST(System, DiceSuppliesExtraLinesToL3)
{
    System dice_sys(smallSystem("dice"),
                    rateProfiles("soplex", 2));
    const RunResult r = dice_sys.run();
    EXPECT_GT(r.l4_extra_lines, 0u);

    // And that should lift the L3 hit rate vs. the uncompressed base.
    System base_sys(smallSystem("alloy"),
                    rateProfiles("soplex", 2));
    const RunResult b = base_sys.run();
    EXPECT_GT(r.l3_hit_rate, b.l3_hit_rate - 0.02);
}

TEST(System, ExtraLineForwardingCanBeDisabled)
{
    SystemConfig cfg = smallSystem("dice");
    cfg.extra_line_to_l3 = false;
    System sys(cfg, rateProfiles("soplex", 2));
    const RunResult r = sys.run();
    // L4 still produces extras; the system just does not install them.
    SystemConfig cfg_on = smallSystem("dice");
    System sys_on(cfg_on, rateProfiles("soplex", 2));
    const RunResult r_on = sys_on.run();
    EXPECT_LE(r.l3_hit_rate, r_on.l3_hit_rate + 0.02);
}

TEST(System, CipAccuracyIsHighOnUniformPages)
{
    System sys(smallSystem("dice"),
               rateProfiles("omnetpp", 2));
    const RunResult r = sys.run();
    EXPECT_GT(r.cip_read_accuracy, 0.85);
    EXPECT_GT(r.cip_write_accuracy, 0.85);
}

TEST(System, IndexDistributionSkewsWithCompressibility)
{
    System comp(smallSystem("dice"),
                rateProfiles("omnetpp", 2));
    const RunResult rc = comp.run();
    EXPECT_GT(rc.frac_bai, rc.frac_tsi); // compressible: mostly BAI

    System incomp(smallSystem("dice"),
                  rateProfiles("libq", 2));
    const RunResult ri = incomp.run();
    EXPECT_GT(ri.frac_tsi, ri.frac_bai); // incompressible: mostly TSI
}

TEST(System, EnergyIsPositiveAndTracksTraffic)
{
    System sys(smallSystem("alloy"), rateProfiles("milc", 2));
    const RunResult r = sys.run();
    EXPECT_GT(r.energy.total_nj, 0.0);
    EXPECT_GT(r.energy.l4_nj, 0.0);
    EXPECT_GT(r.energy.mem_nj, 0.0);
    EXPECT_GT(r.energy.edp, 0.0);
}

TEST(System, NoL4MeansMoreMemoryTraffic)
{
    System with(smallSystem("alloy"), rateProfiles("gcc", 2));
    System without(smallSystem("none"), rateProfiles("gcc", 2));
    const RunResult rw = with.run();
    const RunResult ro = without.run();
    EXPECT_GT(ro.mem_bytes, rw.mem_bytes);
}

TEST(System, MixedWorkloadRunsDistinctProfilesPerCore)
{
    SystemConfig cfg = smallSystem("dice");
    std::vector<WorkloadProfile> mix = {profileByName("mcf"),
                                        profileByName("libq")};
    System sys(cfg, std::move(mix));
    const RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
    // Cores run different workloads, so their cycle counts diverge.
    EXPECT_NE(r.core_cycles[0], r.core_cycles[1]);
}

TEST(System, WeightedSpeedupOfIdenticalRunsIsOne)
{
    System a(smallSystem("alloy"), rateProfiles("wrf", 2));
    System b(smallSystem("alloy"), rateProfiles("wrf", 2));
    const RunResult ra = a.run(), rb = b.run();
    EXPECT_NEAR(weightedSpeedup(ra, rb), 1.0, 1e-9);
}

TEST(System, PrefetchKnobsRun)
{
    SystemConfig nl = smallSystem("alloy");
    nl.l3_nextline_prefetch = true;
    SystemConfig wide = smallSystem("alloy");
    wide.l3_wide_fetch = true;
    EXPECT_GT(System(nl, rateProfiles("lbm", 2)).run().cycles, 0u);
    EXPECT_GT(System(wide, rateProfiles("lbm", 2)).run().cycles, 0u);
}

TEST(System, AvgValidLinesTracksOccupancy)
{
    System sys(smallSystem("dice"),
               rateProfiles("omnetpp", 2));
    const RunResult r = sys.run();
    EXPECT_GT(r.avg_valid_lines, 0.0);
    // Compressible workload: more logical lines than physical sets
    // touched is possible; at minimum it is bounded by refs.
    EXPECT_LT(r.avg_valid_lines, 4e6);
}

TEST(System, SccRunsAndIsSlowerThanDice)
{
    System scc(smallSystem("scc"), rateProfiles("soplex", 2));
    System dice_sys(smallSystem("dice"),
                    rateProfiles("soplex", 2));
    const RunResult rs = scc.run();
    const RunResult rd = dice_sys.run();
    // SCC's 4-access requests burn bandwidth: more L4 bytes moved per
    // useful line, and (on this bandwidth-bound workload) more cycles.
    EXPECT_GT(rs.cycles, rd.cycles);
}

} // namespace
} // namespace dice
