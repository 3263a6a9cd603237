/**
 * @file
 * Lightweight statistics framework.
 *
 * Subsystems expose their counters through a StatGroup so that tests,
 * examples, and the benchmark harness can enumerate and print them
 * uniformly. The design is a deliberately small subset of the gem5 stats
 * package: scalars, formulas (lazy ratios), and mergeable log-bucketed
 * histograms.
 */

#ifndef DICE_COMMON_STATS_HPP
#define DICE_COMMON_STATS_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace dice
{

/** A monotonically-increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t v)
    {
        value_ += v;
        return *this;
    }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (used between measurement phases). */
    void reset() { value_ = 0; }

    operator std::uint64_t() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Mergeable log-bucketed histogram.
 *
 * Bucket edges are *fixed* powers of two — bucket 0 holds exact
 * zeros, bucket i >= 1 holds [2^(i-1), 2^i) — so histograms recorded
 * by different sweep participants (other threads, other processes,
 * other hosts) merge exactly: merge() is elementwise bucket addition,
 * and the merged histogram is bit-identical to one that sampled the
 * concatenated streams. That is the property the distributed sweep
 * needs to report cross-worker phase-latency percentiles without ever
 * shipping raw samples.
 *
 * Storage is a fixed std::array, so construction and sample() never
 * allocate (the hot-path hooks are gated by the micro_simloop
 * allocation check). Not internally synchronized.
 */
class LogHistogram
{
  public:
    /** Bucket 0 (zeros) + one bucket per bit position of uint64. */
    static constexpr std::uint32_t kBuckets = 65;

    /** Bucket index of @p v: 0 for 0, otherwise bit_width(v). */
    static std::uint32_t
    bucketIndex(std::uint64_t v)
    {
        std::uint32_t w = 0;
        while (v != 0) {
            v >>= 1;
            ++w;
        }
        return w;
    }

    /** Inclusive lower edge of bucket @p i. */
    static std::uint64_t
    bucketLo(std::uint32_t i)
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /** Exclusive upper edge of bucket @p i (saturates for the top
     *  bucket, whose true edge 2^64 does not fit in uint64). */
    static std::uint64_t
    bucketHi(std::uint32_t i)
    {
        if (i == 0)
            return 1;
        if (i >= 64)
            return ~std::uint64_t{0};
        return std::uint64_t{1} << i;
    }

    /** Record one sample. Allocation-free. */
    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketIndex(v)];
        sum_ += v;
        ++count_;
        if (v > max_)
            max_ = v;
        if (v < min_)
            min_ = v;
    }

    /** Fold @p other in: exact (see class comment). */
    void merge(const LogHistogram &other);

    /**
     * This histogram minus an earlier snapshot @p since of the *same*
     * histogram: bucket counts, count, and sum become the activity in
     * between (exact — counts are monotone). min/max stay cumulative:
     * extremes of a window are not derivable from two snapshots, and
     * every consumer (percentile clamping, straggler detection) wants
     * an upper bound anyway.
     */
    LogHistogram subtracted(const LogHistogram &since) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t bucket(std::uint32_t i) const { return buckets_.at(i); }

    /** Mean of all samples (0 when empty). */
    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /**
     * Quantile estimate (q in [0, 1]): linear interpolation inside
     * the bucket containing the rank, clamped to the observed
     * [min(), max()] so a wide top bucket cannot report a value no
     * sample reached. 0 when empty.
     */
    double percentile(double q) const;

    void reset() { *this = LogHistogram{}; }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
};

/**
 * A named collection of statistics. Values are captured through
 * accessor lambdas so that a group can expose both raw counters and
 * derived formulas without storage duplication.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a raw counter under @p stat_name (panics on a name
     *  already registered in this group). */
    void
    addCounter(const std::string &stat_name, const Counter &c)
    {
        checkFresh(stat_name);
        entries_.push_back(
            {stat_name, [&c]() { return static_cast<double>(c.value()); }});
    }

    /** Register a derived value (ratio, percentage, ...); panics on a
     *  name already registered in this group. */
    void
    addFormula(const std::string &stat_name, std::function<double()> f)
    {
        checkFresh(stat_name);
        entries_.push_back({stat_name, std::move(f)});
    }

    /**
     * Register a histogram as a family of "<stat_name>.*" entries:
     * count/sum/mean/max, p50/p90/p99 quantiles, and a lo/hi/count
     * triple per non-empty bucket — explicit edges, so no consumer
     * ever re-derives bucket widths from the implementation. Unlike
     * addCounter, values are *frozen at registration time*: groups
     * are materialized on demand by their registry provider (so a
     * fresh group always carries current values) and freezing keeps
     * the export race-free against concurrent samplers.
     */
    void addLogHistogram(const std::string &stat_name,
                         const LogHistogram &h);

    const std::string &name() const { return name_; }

    std::size_t size() const { return entries_.size(); }

    /** Render "group.stat value" lines, one per entry. */
    std::string dump() const;

    /** Look up a stat by name; returns NaN when absent. */
    double get(const std::string &stat_name) const;

    /** Materialize every entry as (name, current value) rows. */
    std::vector<std::pair<std::string, double>> collect() const;

  private:
    struct Entry
    {
        std::string name;
        std::function<double()> value;
    };

    /** Panic when @p stat_name is already registered: a silent
     *  collision would make get() return whichever came first. */
    void checkFresh(const std::string &stat_name) const;

    std::string name_;
    std::vector<Entry> entries_;
};

/** Geometric mean of a vector of positive values (1.0 when empty). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (0.0 when empty). */
double mean(const std::vector<double> &values);

} // namespace dice

#endif // DICE_COMMON_STATS_HPP
