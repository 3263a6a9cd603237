/**
 * @file
 * Event-ordered DRAM device model.
 *
 * Rather than ticking every cycle, each resource (bank, channel data
 * bus) tracks the cycle at which it next becomes free; a request's
 * service time is the max of its arrival and the resources it needs,
 * with row-buffer state deciding between row-hit (tCAS), row-closed
 * (tRCD+tCAS) and row-conflict (tRP+tRCD+tCAS) access latencies. This
 * captures exactly the two effects the DICE study turns on: data-bus
 * occupancy (bandwidth) and bank/row locality.
 */

#ifndef DICE_DRAM_DRAM_HPP
#define DICE_DRAM_DRAM_HPP

#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/timing.hpp"

namespace dice
{

/** Physical coordinates of an access, as decoded by the owner. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
};

/**
 * Decodes a unit index into device coordinates: consecutive units pack
 * one row, then row groups stripe across channels, then banks. The
 * L4's unit is a 72-B TAD set (28 per 2-KB row, Figure 2: packing
 * neighbors into one row is what makes the BAI/TSI second probe a
 * row-buffer hit); main memory's is a 64-B line. Every divide is a
 * Reciprocal, since the decode runs on every device access.
 */
class DramAddressMapper
{
  public:
    DramAddressMapper(const DramTiming &timing,
                      std::uint32_t unit_bytes = 72);

    /** Units that fit in one row. */
    std::uint32_t unitsPerRow() const { return per_row_.divisor(); }

    /** Decode @p unit into channel/bank/row coordinates. */
    DramCoord
    coord(std::uint64_t unit) const
    {
        const std::uint64_t row_group = per_row_.divmod(unit).quot;
        const Reciprocal::QuotRem by_channel = channels_.divmod(row_group);
        const Reciprocal::QuotRem by_bank = banks_.divmod(by_channel.quot);
        return DramCoord{by_channel.rem, by_bank.rem, by_bank.quot};
    }

  private:
    Reciprocal per_row_;
    Reciprocal channels_;
    Reciprocal banks_;
};

/** How an access interacts with the channel's scheduling. */
enum class AccessKind : std::uint8_t
{
    /**
     * Demand read on the latency-critical path: occupies bank and bus
     * and returns real completion times.
     */
    DemandRead,
    /**
     * Read issued by the write path (e.g. the TAD read-modify-write
     * probe before an install): buffered with the write queue and
     * drained into idle slots, charging bandwidth without blocking
     * later demand reads.
     */
    PostedRead,
    /** Posted write, drained from the write queue. */
    PostedWrite,
};

/** Result of one device access. */
struct DramResult
{
    /** Cycle at which the last data beat has transferred. */
    Cycle done = 0;
    /** Cycle at which the *first* data beat arrives (critical word). */
    Cycle first_data = 0;
    /** True when the access hit the open row. */
    bool row_hit = false;
};

/**
 * One DRAM device: a set of channels, each with banks and a shared data
 * bus. Used for the stacked L4 substrate and the DDR main memory.
 */
class DramDevice
{
  public:
    DramDevice(std::string name, const DramTiming &timing);

    /**
     * Perform an access of @p bytes at @p coord, arriving at cycle
     * @p when. Returns completion times and updates resource state.
     */
    DramResult access(const DramCoord &coord, std::uint32_t bytes,
                      Cycle when, AccessKind kind);

    /** Convenience overload: write -> PostedWrite, read -> DemandRead. */
    DramResult
    access(const DramCoord &coord, std::uint32_t bytes, Cycle when,
           bool is_write)
    {
        return access(coord, bytes, when,
                      is_write ? AccessKind::PostedWrite
                               : AccessKind::DemandRead);
    }

    const DramTiming &timing() const { return timing_; }

    /** Number of row-buffer hits observed. */
    std::uint64_t rowHits() const { return row_hits_; }
    std::uint64_t rowConflicts() const { return row_conflicts_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t postedReads() const { return posted_reads_; }
    std::uint64_t bytesMoved() const { return bytes_moved_; }
    std::uint64_t activations() const { return activations_; }
    /** Total cycles the data buses were occupied (all channels). */
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }

    /** Mean read latency (arrival to last beat), in cycles. */
    double
    avgReadLatency() const
    {
        return reads_ == 0 ? 0.0
                           : static_cast<double>(read_latency_sum_) /
                                 static_cast<double>(reads_);
    }

    /** Fraction of peak bandwidth used over @p elapsed cycles. */
    double busUtilization(Cycle elapsed) const;

    /** Reset timing state and statistics (fresh device). */
    void reset();

    /**
     * Clear statistics only, preserving bank/bus/backlog timing state
     * (used at the warmup/measurement boundary).
     */
    void resetStats();

    /** Expose counters to harnesses. */
    StatGroup stats() const;

    const std::string &name() const { return name_; }

  private:
    struct Bank
    {
        std::uint64_t open_row = kNoRow;
        /** Cycle at which the bank can accept a new column command. */
        Cycle ready = 0;
        /** Earliest cycle a precharge may complete (tRAS). */
        Cycle ras_done = 0;
    };

    static constexpr std::uint64_t kNoRow = ~std::uint64_t{0};

    std::string name_;
    DramTiming timing_;
    std::vector<Bank> banks_;         // channels * banks_per_channel
    std::vector<Cycle> bus_free_;     // per channel
    std::vector<Cycle> write_backlog_; // per channel, in bus cycles

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_conflicts_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t posted_reads_ = 0;
    std::uint64_t bytes_moved_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t bus_busy_cycles_ = 0;
    std::uint64_t read_latency_sum_ = 0;
};

} // namespace dice

#endif // DICE_DRAM_DRAM_HPP
