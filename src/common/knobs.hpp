/**
 * @file
 * The one table of runtime knobs. Every DICE_* environment variable is
 * a row of knobTable() — name, default, parse rule, one-line effect —
 * read through the accessors below, which re-read the environment on
 * every call (none is on a hot path; tests change knobs mid-process).
 * The knob_census ctest keeps every other file off the environment and
 * README's "Knobs" table in step with this one.
 *
 * Unset and empty read as the default. A Flag is off at "0" and on at
 * anything else; a Count is a whole number >= 1, a Whole one >= 0, a
 * Real a positive real, a Level quiet|0, warn|1 or debug|2. A value
 * that does not parse fully draws one warning per knob and reads as
 * the default.
 */

#ifndef DICE_COMMON_KNOBS_HPP
#define DICE_COMMON_KNOBS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace dice
{

enum class KnobRule : std::uint8_t { Text, Flag, Count, Whole, Real, Level };

/** One row of the knob table. */
struct KnobSpec
{
    const char *name;     ///< The environment variable.
    const char *fallback; ///< Default, in the knob's own syntax.
    KnobRule rule;
    const char *doc;      ///< What the knob does, in one line.
};

/** Every knob, in table order. */
enum class Knob : std::uint8_t
{
    BenchRefs, BenchJobs, BenchCacheDir, BenchNoCache, BenchOrgs,
    StatsJson, StatsInterval, Progress, DecisionTrace, LogLevel,
    SweepResults, SweepMerged, SweepStragglerK,
};

inline constexpr std::size_t kKnobCount = 13;

/** The knob table, indexed by Knob. */
const std::array<KnobSpec, kKnobCount> &knobTable();

/** Typed reads; each asserts @p k has that rule. knobCount takes
 *  Count and Whole knobs (a default of "ncpu" is the hardware thread
 *  count); knobLevel returns 0 quiet, 1 warn, 2 debug. */
std::string knobText(Knob k);
bool knobFlag(Knob k);
std::uint64_t knobCount(Knob k);
double knobReal(Knob k);
unsigned knobLevel(Knob k);

/** Whether @p k is set to a non-empty value. */
bool knobSet(Knob k);

/** The value @p k has now, in its own syntax: what a run uses, and
 *  what sweep_summary.json's "knobs" object reports. */
std::string knobValue(Knob k);

/** The persistent result cache directory, or "" when
 *  DICE_BENCH_NO_CACHE turns persistence off. */
std::string benchCacheDir();

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

} // namespace dice

#endif // DICE_COMMON_KNOBS_HPP
