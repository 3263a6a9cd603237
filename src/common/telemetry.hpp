/**
 * @file
 * Simulator-wide telemetry: a hierarchical registry of StatGroups with
 * machine-readable export, plus the environment knobs that gate every
 * observability feature.
 *
 * A StatRegistry owns a list of (path, provider) pairs, where each
 * provider materializes a StatGroup on demand. Because StatGroup
 * entries read live counters through lambdas, a registry snapshot
 * always reflects the owning component's *current* state: the System
 * registers its L3/L4/CIP/DRAM/arena groups once at construction, and
 * the same registry serves both the end-of-run export and the interval
 * snapshots taken mid-run (warmup vs steady state).
 *
 * Export formats:
 *  - JSON (DICE_STATS_JSON=<dir>): one self-contained document per
 *    simulation cell, groups keyed by path plus an "intervals" array.
 *  - CSV  (DICE_STATS_CSV=<dir>): flat group,stat,value rows for
 *    spreadsheet-style diffing between runs.
 *
 * Every knob is re-read from the environment at use time (none of
 * these paths are hot), so tests and long-lived processes can flip
 * them between sweeps.
 */

#ifndef DICE_COMMON_TELEMETRY_HPP
#define DICE_COMMON_TELEMETRY_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace dice
{

/** Hierarchical collection of StatGroups with JSON/CSV export. */
class StatRegistry
{
  public:
    /** Builds the group whose live counters the entry reads. */
    using Provider = std::function<StatGroup()>;

    StatRegistry() = default;

    /** The registry holds this-capturing providers; copying it would
     *  silently alias another object's components. */
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Register @p provider under @p path ("l3", "l4.dram", ...).
     * Panics on a duplicate path: two components exporting under one
     * name would make every downstream consumer ambiguous.
     */
    void add(std::string path, Provider provider);

    std::size_t groupCount() const { return groups_.size(); }

    /** One mid-run capture of every registered stat. */
    struct Snapshot
    {
        std::string label;  ///< Phase name ("warmup", "measure", ...).
        std::uint64_t refs; ///< References completed at capture time.
        /** Flattened "path.stat" -> value rows, registration order. */
        std::vector<std::pair<std::string, double>> values;
    };

    /** Capture an interval snapshot of every group's current values. */
    void captureInterval(const std::string &label, std::uint64_t refs);

    const std::vector<Snapshot> &intervals() const { return intervals_; }

    /**
     * Per-interval activity of snapshot @p i: each stat's value minus
     * the previous snapshot's value for the same name (the first
     * snapshot is differenced against zero). For cumulative counters
     * this is the work done *within* the interval — what rate plots
     * and warmup-vs-steady comparisons actually want. Exported as the
     * "deltas" object per interval in toJson() and as "<name>.delta"
     * rows in toCsv().
     */
    std::vector<std::pair<std::string, double>>
    intervalDeltas(std::size_t i) const;

    /** Current value of every stat as flattened "path.stat" rows. */
    std::vector<std::pair<std::string, double>> flatten() const;

    /**
     * Whole registry (groups + intervals) as one JSON document.
     * Non-finite values are emitted as null so the output always
     * parses.
     */
    std::string toJson() const;

    /** Flat "group,stat,value" CSV (intervals get a refs column). */
    std::string toCsv() const;

    /** Write toJson()/toCsv() to @p path; false on I/O failure. */
    bool writeJson(const std::string &path) const;
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, Provider>> groups_;
    std::vector<Snapshot> intervals_;
};

/** Append @p s to @p out with JSON string escaping (no quotes added). */
void appendJsonEscaped(std::string &out, const std::string &s);

/** Append @p v as a JSON number ("null" for NaN/infinity). */
void appendJsonNumber(std::string &out, double v);

/** DICE_STATS_JSON: directory for per-cell stats JSON ("" = off). */
std::string statsJsonDir();

/** DICE_STATS_CSV: directory for per-cell stats CSV ("" = off). */
std::string statsCsvDir();

/** DICE_STATS_INTERVAL: refs between interval snapshots (0 = off). */
std::uint64_t statsIntervalRefs();

/** DICE_DECISION_TRACE=1: record per-access decision rings. */
bool decisionTraceEnabled();

/** DICE_PROGRESS=1: bench-harness progress line. */
bool progressEnabled();

/** DICE_SWEEP_RESULTS: directory for distributed-sweep output
 *  (per-cell docs, leases, event journals, summary, timeline).
 *  "" = harness default (<bench cache dir>/results); set, it also
 *  makes a serial run write one. */
std::string sweepResultsDir();

/** DICE_SWEEP_MERGED: path for the canonical merged sweep document
 *  ("" = not written). */
std::string sweepMergedPath();

/** DICE_SWEEP_STRAGGLER_K: a cell slower than k x p90 of the batch's
 *  cell latencies is flagged as a straggler (default 4.0). */
double sweepStragglerK();

/** Make @p name safe as a file stem ([A-Za-z0-9._-], rest -> '_'). */
std::string sanitizeFileStem(const std::string &name);

} // namespace dice

#endif // DICE_COMMON_TELEMETRY_HPP
