#include "telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/log.hpp"

namespace dice
{

namespace
{

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? v : fallback;
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && std::strcmp(v, "0") != 0 &&
           std::strcmp(v, "") != 0;
}

bool
writeStringTo(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

} // namespace

void
StatRegistry::add(std::string path, Provider provider)
{
    dice_assert(provider != nullptr, "null stat provider for '%s'",
                path.c_str());
    for (const auto &g : groups_) {
        dice_assert(g.first != path,
                    "duplicate stat group path '%s'", path.c_str());
    }
    groups_.emplace_back(std::move(path), std::move(provider));
}

std::vector<std::pair<std::string, double>>
StatRegistry::flatten() const
{
    std::vector<std::pair<std::string, double>> rows;
    for (const auto &[path, provider] : groups_) {
        const StatGroup g = provider();
        for (const auto &[stat, value] : g.collect())
            rows.emplace_back(path + "." + stat, value);
    }
    return rows;
}

void
StatRegistry::captureInterval(const std::string &label,
                              std::uint64_t refs)
{
    Snapshot snap;
    snap.label = label;
    snap.refs = refs;
    snap.values = flatten();
    intervals_.push_back(std::move(snap));
}

std::vector<std::pair<std::string, double>>
StatRegistry::intervalDeltas(std::size_t i) const
{
    dice_assert(i < intervals_.size(), "interval index out of range");
    const Snapshot &snap = intervals_[i];
    const Snapshot *prev = i > 0 ? &intervals_[i - 1] : nullptr;

    std::vector<std::pair<std::string, double>> rows;
    rows.reserve(snap.values.size());
    for (std::size_t v = 0; v < snap.values.size(); ++v) {
        const auto &[name, value] = snap.values[v];
        double base = 0.0;
        if (prev != nullptr) {
            // Snapshots flatten in registration order, so the matching
            // row is almost always at the same index; fall back to a
            // name scan if a group appeared between captures.
            if (v < prev->values.size() &&
                prev->values[v].first == name) {
                base = prev->values[v].second;
            } else {
                for (const auto &[pname, pvalue] : prev->values) {
                    if (pname == name) {
                        base = pvalue;
                        break;
                    }
                }
            }
        }
        rows.emplace_back(name, value - base);
    }
    return rows;
}

void
appendJsonEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xFF);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

std::string
StatRegistry::toJson() const
{
    std::string out;
    out += "{\n  \"groups\": {";
    bool first_group = true;
    for (const auto &[path, provider] : groups_) {
        out += first_group ? "\n" : ",\n";
        first_group = false;
        out += "    \"";
        appendJsonEscaped(out, path);
        out += "\": {";
        const StatGroup g = provider();
        bool first_stat = true;
        for (const auto &[stat, value] : g.collect()) {
            out += first_stat ? "" : ", ";
            first_stat = false;
            out += '"';
            appendJsonEscaped(out, stat);
            out += "\": ";
            appendJsonNumber(out, value);
        }
        out += '}';
    }
    out += "\n  },\n  \"intervals\": [";
    bool first_snap = true;
    for (std::size_t s = 0; s < intervals_.size(); ++s) {
        const Snapshot &snap = intervals_[s];
        out += first_snap ? "\n" : ",\n";
        first_snap = false;
        out += "    {\"label\": \"";
        appendJsonEscaped(out, snap.label);
        out += "\", \"refs\": ";
        appendJsonNumber(out, static_cast<double>(snap.refs));
        out += ", \"values\": {";
        bool first_val = true;
        for (const auto &[name, value] : snap.values) {
            out += first_val ? "" : ", ";
            first_val = false;
            out += '"';
            appendJsonEscaped(out, name);
            out += "\": ";
            appendJsonNumber(out, value);
        }
        // Per-interval activity: cumulative counters differenced
        // against the previous snapshot (the first one against zero),
        // so consumers get warmup-vs-steady rates without re-deriving
        // them from the cumulative rows.
        out += "}, \"deltas\": {";
        bool first_delta = true;
        for (const auto &[name, dv] : intervalDeltas(s)) {
            out += first_delta ? "" : ", ";
            first_delta = false;
            out += '"';
            appendJsonEscaped(out, name);
            out += "\": ";
            appendJsonNumber(out, dv);
        }
        out += "}}";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string
StatRegistry::toCsv() const
{
    std::string out = "scope,refs,stat,value\n";
    char buf[64];
    auto appendRow = [&out, &buf](const char *scope, std::uint64_t refs,
                                  const std::string &name, double value) {
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(refs));
        out += scope;
        out += ',';
        out += buf;
        out += ',';
        out += name;
        out += ',';
        std::snprintf(buf, sizeof buf, "%.17g", value);
        out += buf;
        out += '\n';
    };
    for (const auto &[name, value] : flatten())
        appendRow("final", 0, name, value);
    for (std::size_t s = 0; s < intervals_.size(); ++s) {
        const Snapshot &snap = intervals_[s];
        for (const auto &[name, value] : snap.values)
            appendRow(snap.label.c_str(), snap.refs, name, value);
        for (const auto &[name, dv] : intervalDeltas(s))
            appendRow(snap.label.c_str(), snap.refs, name + ".delta",
                      dv);
    }
    return out;
}

bool
StatRegistry::writeJson(const std::string &path) const
{
    return writeStringTo(path, toJson());
}

bool
StatRegistry::writeCsv(const std::string &path) const
{
    return writeStringTo(path, toCsv());
}

std::string
statsJsonDir()
{
    return envOr("DICE_STATS_JSON", "");
}

std::string
statsCsvDir()
{
    return envOr("DICE_STATS_CSV", "");
}

std::uint64_t
statsIntervalRefs()
{
    const char *v = std::getenv("DICE_STATS_INTERVAL");
    return v != nullptr ? std::strtoull(v, nullptr, 10) : 0;
}

bool
decisionTraceEnabled()
{
    return envFlag("DICE_DECISION_TRACE");
}

bool
progressEnabled()
{
    return envFlag("DICE_PROGRESS");
}

std::string
sweepResultsDir()
{
    return envOr("DICE_SWEEP_RESULTS", "");
}

std::string
sweepMergedPath()
{
    return envOr("DICE_SWEEP_MERGED", "");
}

double
sweepStragglerK()
{
    const char *v = std::getenv("DICE_SWEEP_STRAGGLER_K");
    if (v != nullptr && *v != '\0') {
        char *end = nullptr;
        const double k = std::strtod(v, &end);
        if (end != v && k > 0.0)
            return k;
    }
    return 4.0;
}

std::string
sanitizeFileStem(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                        c == '_';
        out += ok ? c : '_';
    }
    return out.empty() ? "unnamed" : out;
}

} // namespace dice
