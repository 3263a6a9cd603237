/**
 * @file
 * Main-memory model: the DDR DramDevice for timing plus a functional
 * store of per-line data versions (the full data bytes are regenerated
 * from (line, version) by the workload data generator).
 */

#ifndef DICE_SIM_MEMORY_HPP
#define DICE_SIM_MEMORY_HPP

#include "common/flat_map.hpp"
#include "common/page_alloc.hpp"
#include "common/types.hpp"
#include "dram/dram.hpp"
#include "dram/timing.hpp"

namespace dice
{

/** DDR main memory behind the L4 cache. */
class MainMemory
{
  public:
    explicit MainMemory(
        const DramTiming &timing = DramTiming::mainMemoryDdr());

    /** Read @p line at cycle @p now; returns device completion times. */
    DramResult read(LineAddr line, Cycle now);

    /** Write back @p line (posted; consumes bandwidth). */
    void write(LineAddr line, std::uint64_t version, Cycle now);

    /**
     * Stream @p line toward the L4 off the critical path (posted read;
     * consumes bandwidth). Page-granularity fills are made of these.
     */
    void fetch(LineAddr line, Cycle now);

    /** Current data version of @p line (0 if never written back). */
    std::uint64_t versionOf(LineAddr line) const;

    /** Start loading @p line's version slot ahead of versionOf(). */
    void prefetchVersion(LineAddr line) const { versions_.prefetch(line); }

    DramDevice &device() { return device_; }
    const DramDevice &device() const { return device_; }

  private:
    DramDevice device_;
    /** The L4's decode over 64-B lines instead of 72-B TADs. */
    DramAddressMapper mapper_;
    /** Open-addressed line -> version store (hot on every writeback). */
    FlatMap<LineAddr, std::uint64_t, Mix64Hash, PageAllocator> versions_;
};

} // namespace dice

#endif // DICE_SIM_MEMORY_HPP
