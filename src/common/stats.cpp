#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace dice
{

std::string
StatGroup::dump() const
{
    std::string out;
    char buf[256];
    for (const auto &e : entries_) {
        std::snprintf(buf, sizeof buf, "%s.%s %.6g\n", name_.c_str(),
                      e.name.c_str(), e.value());
        out += buf;
    }
    return out;
}

double
StatGroup::get(const std::string &stat_name) const
{
    for (const auto &e : entries_) {
        if (e.name == stat_name)
            return e.value();
    }
    return std::numeric_limits<double>::quiet_NaN();
}

std::vector<std::pair<std::string, double>>
StatGroup::collect() const
{
    std::vector<std::pair<std::string, double>> rows;
    rows.reserve(entries_.size());
    for (const auto &e : entries_)
        rows.emplace_back(e.name, e.value());
    return rows;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (std::uint32_t i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    sum_ += other.sum_;
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
    min_ = std::min(min_, other.min_);
}

LogHistogram
LogHistogram::subtracted(const LogHistogram &since) const
{
    LogHistogram out;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
        dice_assert(buckets_[i] >= since.buckets_[i],
                    "LogHistogram::subtracted: snapshot is not a "
                    "prefix of this histogram");
        out.buckets_[i] = buckets_[i] - since.buckets_[i];
    }
    out.sum_ = sum_ - since.sum_;
    out.count_ = count_ - since.count_;
    out.max_ = max_;
    out.min_ = min_;
    return out;
}

double
LogHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Walk the cumulative bucket counts to the rank q*count, then
    // interpolate linearly between that bucket's [lo, hi) edges; the
    // top edge is clamped to the observed max (the nominal 2^64 would
    // dominate any interpolation).
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(count_);
    const double lo_clamp = static_cast<double>(min());
    const double hi_clamp = static_cast<double>(max_);
    double cum = 0.0;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t c = buckets_[i];
        if (c == 0)
            continue;
        cum += static_cast<double>(c);
        if (cum >= target) {
            double frac =
                1.0 - (cum - target) / static_cast<double>(c);
            frac = std::min(1.0, std::max(0.0, frac));
            const double lo = static_cast<double>(bucketLo(i));
            const double hi =
                std::min(static_cast<double>(bucketHi(i)), hi_clamp);
            const double v = lo + frac * (hi - lo);
            return std::min(hi_clamp, std::max(lo_clamp, v));
        }
    }
    return hi_clamp;
}

void
StatGroup::addLogHistogram(const std::string &stat_name,
                           const LogHistogram &h)
{
    const auto freeze = [this, &stat_name](const char *suffix, double v) {
        addFormula(stat_name + "." + suffix, [v] { return v; });
    };
    freeze("count", static_cast<double>(h.count()));
    freeze("sum", static_cast<double>(h.sum()));
    freeze("mean", h.mean());
    freeze("max", static_cast<double>(h.max()));
    freeze("p50", h.percentile(0.50));
    freeze("p90", h.percentile(0.90));
    freeze("p99", h.percentile(0.99));
    for (std::uint32_t i = 0; i < LogHistogram::kBuckets; ++i) {
        const std::uint64_t c = h.bucket(i);
        if (c == 0)
            continue;
        const std::string prefix =
            stat_name + ".bucket" + std::to_string(i);
        addFormula(prefix + ".lo",
                   [v = static_cast<double>(LogHistogram::bucketLo(i))] {
                       return v;
                   });
        addFormula(prefix + ".hi",
                   [v = static_cast<double>(LogHistogram::bucketHi(i))] {
                       return v;
                   });
        addFormula(prefix + ".count",
                   [v = static_cast<double>(c)] { return v; });
    }
}

void
StatGroup::checkFresh(const std::string &stat_name) const
{
    for (const auto &e : entries_) {
        if (e.name == stat_name) {
            dice_panic("duplicate stat '%s' in group '%s'",
                       stat_name.c_str(), name_.c_str());
        }
    }
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

} // namespace dice
