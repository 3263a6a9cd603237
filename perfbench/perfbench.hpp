/**
 * @file
 * Shared pieces of the simulator benchmark (see NOTES.md): the cells a
 * workload runs and the traced per-layer run that perfbench.cpp drives.
 */

#ifndef DICE_PERFBENCH_HPP
#define DICE_PERFBENCH_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench
{

/** One simulation: a trace replayed under one L4 organization. */
struct Cell
{
    std::string trace; ///< Evaluation workload ("libq", "mcf", ...).
    unsigned replica = 0;
    dice::SystemConfig config;

    /** The L4 organization, e.g. "dice". */
    const std::string &
    org() const
    {
        return config.l4.organization;
    }

    /** Seed-independent name, e.g. "libq/dice/2". */
    std::string
    id() const
    {
        return trace + "/" + org() + "/" + std::to_string(replica);
    }

    /** References simulated (warm-up + measured, all cores). */
    std::uint64_t
    refs() const
    {
        return (config.warmup_refs_per_core + config.refs_per_core) *
               config.num_cores;
    }

    /** References of the measured phase only (all cores). */
    std::uint64_t
    measuredRefs() const
    {
        return config.refs_per_core * config.num_cores;
    }
};

/** A named value printed by the benchmark. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Untraced results of one batch, index-aligned with its cells. */
using BatchResults = std::vector<dice::RunResult>;

/** Median of @p v (non-empty). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * Outcome of the traced batches: per-layer metrics plus how many cells
 * failed to reproduce their untraced per-core cycles.
 */
struct TracedOutcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Median over traced batches of references per host second. */
    double refs_per_s = 0.0;
};

/**
 * Run @p cells traced — each System driven directly, its L4 behind a
 * forwarding organization that counts every call and times one in
 * kSampleEvery — batch after batch while another is predicted to fit
 * in @p seconds (at least once). Every cell's per-core cycles are
 * compared with @p untraced. Span totals and histograms are written to
 * @p trace_out when the batches end; @p streams feed the layer-alone
 * replays.
 */
TracedOutcome
runTraced(const std::vector<Cell> &cells, const BatchResults &untraced,
          const std::vector<std::shared_ptr<const dice::TraceSet>>
              &streams,
          double seconds, unsigned jobs, const std::string &trace_out);

} // namespace perfbench

#endif // DICE_PERFBENCH_HPP
