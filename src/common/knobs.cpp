#include "knobs.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "common/log.hpp"

namespace dice
{

const std::array<KnobSpec, kKnobCount> &
knobTable()
{
    static const std::array<KnobSpec, kKnobCount> table = {{
        {"DICE_BENCH_REFS", "40000", KnobRule::Count,
         "measured references per core; warmup adds half as many"},
        {"DICE_BENCH_JOBS", "ncpu", KnobRule::Count,
         "worker threads per process"},
        {"DICE_BENCH_CACHE_DIR", "bench_cache", KnobRule::Text,
         "directory of the result cache and the arena store"},
        {"DICE_BENCH_NO_CACHE", "0", KnobRule::Flag,
         "turn the result cache and the arena store off"},
        {"DICE_ARENA_DIR", "", KnobRule::Text,
         "arena store directory (default <cache dir>/arena)"},
        {"DICE_BENCH_ORGS", "", KnobRule::Text,
         "comma-separated L4 organizations fig10/fig13 append"},
        {"DICE_STATS_JSON", "", KnobRule::Text,
         "directory for one stats document per fresh cell"},
        {"DICE_STATS_INTERVAL", "0", KnobRule::Whole,
         "references between interval snapshots (0: none)"},
        {"DICE_PROGRESS", "0", KnobRule::Flag,
         "one progress line per finished cell"},
        {"DICE_DECISION_TRACE", "0", KnobRule::Flag,
         "record per-access CIP and DICE decision rings"},
        {"DICE_LOG_LEVEL", "warn", KnobRule::Level,
         "log verbosity: quiet, warn or debug"},
        {"DICE_FORCE_SCALAR", "0", KnobRule::Flag,
         "run the scalar reference of every SIMD kernel"},
        {"DICE_SWEEP_RESULTS", "", KnobRule::Text,
         "sweep results directory (default <cache dir>/results)"},
        {"DICE_SWEEP_MERGED", "", KnobRule::Text,
         "path of the canonical merged sweep document"},
        {"DICE_SWEEP_LEASE_STALE_S", "30", KnobRule::Count,
         "seconds before a silent cell lease is requeued"},
        {"DICE_SWEEP_STRAGGLER_K", "4", KnobRule::Real,
         "a cell slower than k x p90 is a straggler"},
    }};
    return table;
}

namespace
{

constexpr std::array<const char *, 3> kLevelNames = {"quiet", "warn",
                                                     "debug"};

/** @p k's row; asserts it is read under its own rule. */
const KnobSpec &
spec(Knob k, KnobRule rule)
{
    const KnobSpec &s = knobTable()[static_cast<std::size_t>(k)];
    dice_assert(s.rule == rule, "%s read under another parse rule",
                s.name);
    return s;
}

/** The environment value of @p s, or null when unset or empty. */
const char *
raw(const KnobSpec &s)
{
    const char *v = std::getenv(s.name);
    return v != nullptr && *v != '\0' ? v : nullptr;
}

/** A whole number: all digits, fitting 64 bits. */
std::optional<std::uint64_t>
parseWhole(const char *s)
{
    if (*s < '0' || *s > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
parseCount(const char *s)
{
    const std::optional<std::uint64_t> n = parseWhole(s);
    return n && *n >= 1 ? n : std::nullopt;
}

std::optional<double>
parsePositiveReal(const char *s)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0)
        return std::nullopt;
    return v;
}

std::optional<unsigned>
parseLevel(const char *s)
{
    for (unsigned i = 0; i < kLevelNames.size(); ++i) {
        if (std::strcmp(s, kLevelNames[i]) == 0 ||
            (s[0] == static_cast<char>('0' + i) && s[1] == '\0'))
            return i;
    }
    return std::nullopt;
}

/**
 * @p s's value under @p parse, or its default (the default's own parse
 * when @p fallback is null). A malformed value is reported once per
 * knob — for DICE_LOG_LEVEL straight to stderr, since dice_warn reads
 * that knob.
 */
template <typename T>
T
parsed(const KnobSpec &s, std::optional<T> (*parse)(const char *),
       const char *want, std::optional<T> fallback = std::nullopt)
{
    if (const char *v = raw(s)) {
        if (const std::optional<T> x = parse(v))
            return *x;
        static std::array<std::atomic<bool>, kKnobCount> warned{};
        const auto row =
            static_cast<std::size_t>(&s - knobTable().data());
        if (!warned[row].exchange(true)) {
            if (s.rule == KnobRule::Level)
                std::fprintf(stderr, "warn: %s=%s is not %s; using %s\n",
                             s.name, v, want, s.fallback);
            else
                dice_warn("%s=%s is not %s; using %s", s.name, v, want,
                          s.fallback);
        }
    }
    return fallback ? *fallback : *parse(s.fallback);
}

} // namespace

std::string
knobText(Knob k)
{
    const KnobSpec &s = spec(k, KnobRule::Text);
    const char *v = raw(s);
    return v != nullptr ? v : s.fallback;
}

bool
knobFlag(Knob k)
{
    const char *v = raw(spec(k, KnobRule::Flag));
    return v != nullptr && std::strcmp(v, "0") != 0;
}

std::uint64_t
knobCount(Knob k)
{
    const KnobSpec &s = knobTable()[static_cast<std::size_t>(k)];
    if (s.rule == KnobRule::Whole)
        return parsed(s, parseWhole, "a whole number >= 0");
    // The one computed default: DICE_BENCH_JOBS's hardware thread count.
    std::optional<std::uint64_t> ncpu;
    if (std::strcmp(s.fallback, "ncpu") == 0)
        ncpu = std::max(1u, std::thread::hardware_concurrency());
    return parsed(spec(k, KnobRule::Count), parseCount,
                  "a whole number >= 1", ncpu);
}

double
knobReal(Knob k)
{
    return parsed(spec(k, KnobRule::Real), parsePositiveReal,
                  "a positive real number");
}

unsigned
knobLevel(Knob k)
{
    return parsed(spec(k, KnobRule::Level), parseLevel,
                  "quiet, warn or debug");
}

bool
knobSet(Knob k)
{
    return raw(knobTable()[static_cast<std::size_t>(k)]) != nullptr;
}

std::string
knobValue(Knob k)
{
    switch (knobTable()[static_cast<std::size_t>(k)].rule) {
      case KnobRule::Text:
        return knobText(k);
      case KnobRule::Flag:
        return knobFlag(k) ? "1" : "0";
      case KnobRule::Count:
      case KnobRule::Whole:
        return std::to_string(knobCount(k));
      case KnobRule::Real: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", knobReal(k));
        return buf;
      }
      case KnobRule::Level:
        return kLevelNames[knobLevel(k)];
    }
    return "";
}

std::string
benchCacheDir()
{
    return knobFlag(Knob::BenchNoCache) ? ""
                                        : knobText(Knob::BenchCacheDir);
}

std::string
arenaStoreDir()
{
    const std::string cache = benchCacheDir();
    const std::string dir = knobText(Knob::ArenaDir);
    if (cache.empty())
        return "";
    return dir.empty() ? cache + "/arena" : dir;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream in(csv);
    for (std::string item; std::getline(in, item, ',');) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

} // namespace dice
