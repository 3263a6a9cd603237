/**
 * @file
 * Packed, immutable storage for a pre-generated reference stream.
 *
 * A MemRef is 24 bytes; a sweep-scale stream (hundreds of thousands of
 * references per core, dozens of workloads) stored as MemRef arrays
 * would dominate the arena's memory budget. PackedTrace stores the
 * stream as separate planes instead:
 *
 *   - line:      8 B (full LineAddr)
 *   - gap_instr: 2 B (generator gaps are clamped well below 64 Ki;
 *                the rare larger value spills to a side table)
 *   - pc:        2 B index into a per-stream table of distinct PCs
 *                (bursts reuse a small PC set; see TraceGenerator)
 *   - is_write:  1 bit
 *
 * ~12.1 B per reference, about half the struct-of-MemRefs cost, while
 * at() reconstructs every reference bit-exactly.
 */

#ifndef DICE_WORKLOADS_PACKED_TRACE_HPP
#define DICE_WORKLOADS_PACKED_TRACE_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "workloads/tracegen.hpp"

namespace dice
{

/** One core's reference stream in packed plane form. */
class PackedTrace
{
  public:
    /** Plane value meaning "look up the side table instead". */
    static constexpr std::uint16_t kOverflow = 0xFFFF;

    void
    reserve(std::size_t refs)
    {
        line_.reserve(refs);
        gap_.reserve(refs);
        pc_idx_.reserve(refs);
        write_bits_.reserve((refs + 63) / 64);
    }

    /** Append one reference (build phase only). */
    void
    append(const MemRef &ref)
    {
        const std::size_t i = line_.size();
        line_.push_back(ref.line);

        if (ref.gap_instr < kOverflow) {
            gap_.push_back(static_cast<std::uint16_t>(ref.gap_instr));
        } else {
            gap_.push_back(kOverflow);
            gap_overflow_.emplace_back(i, ref.gap_instr);
        }

        pc_idx_.push_back(pcIndexFor(i, ref.pc));

        if (i % 64 == 0)
            write_bits_.push_back(0);
        if (ref.is_write)
            write_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    /** Drop build-only lookup state; call once generation is done. */
    void
    seal()
    {
        pc_lookup_ = FlatMap<std::uint64_t, std::uint32_t>{};
        line_.shrink_to_fit();
        gap_.shrink_to_fit();
        pc_idx_.shrink_to_fit();
        write_bits_.shrink_to_fit();
        pc_table_.shrink_to_fit();
        gap_overflow_.shrink_to_fit();
        pc_overflow_.shrink_to_fit();
    }

    std::size_t size() const { return line_.size(); }

    /** Reconstruct reference @p i exactly as the generator emitted it. */
    MemRef
    at(std::size_t i) const
    {
        MemRef ref;
        ref.line = line_[i];
        ref.is_write =
            (write_bits_[i / 64] >> (i % 64)) & std::uint64_t{1};

        const std::uint16_t g = gap_[i];
        ref.gap_instr = g != kOverflow ? g : sideValue(gap_overflow_, i);

        const std::uint16_t p = pc_idx_[i];
        ref.pc = p != kOverflow ? pc_table_[p]
                                : sideValue(pc_overflow_, i);
        return ref;
    }

    /** Resident bytes (planes + side tables), for the arena budget. */
    std::size_t
    bytes() const
    {
        return line_.capacity() * sizeof(LineAddr) +
               gap_.capacity() * sizeof(std::uint16_t) +
               pc_idx_.capacity() * sizeof(std::uint16_t) +
               write_bits_.capacity() * sizeof(std::uint64_t) +
               pc_table_.capacity() * sizeof(std::uint64_t) +
               gap_overflow_.capacity() * sizeof(gap_overflow_[0]) +
               pc_overflow_.capacity() * sizeof(pc_overflow_[0]) +
               pc_lookup_.capacity() *
                   (sizeof(std::uint64_t) + sizeof(std::uint32_t) + 1);
    }

    std::size_t distinctPcs() const { return pc_table_.size(); }

  private:
    /** Intern @p pc; returns its table index or kOverflow (spilled). */
    std::uint16_t
    pcIndexFor(std::size_t i, std::uint64_t pc)
    {
        if (auto *idx = pc_lookup_.find(pc))
            return static_cast<std::uint16_t>(*idx);
        if (pc_table_.size() < kOverflow) {
            const auto idx =
                static_cast<std::uint32_t>(pc_table_.size());
            pc_table_.push_back(pc);
            pc_lookup_.insert_or_assign(pc, idx);
            return static_cast<std::uint16_t>(idx);
        }
        pc_overflow_.emplace_back(i, pc);
        return kOverflow;
    }

    /** Binary-search a (monotonic-index, value) side table. */
    template <typename V>
    static V
    sideValue(const std::vector<std::pair<std::uint64_t, V>> &side,
              std::size_t i)
    {
        const auto it = std::lower_bound(
            side.begin(), side.end(), i,
            [](const auto &e, std::size_t key) { return e.first < key; });
        dice_assert(it != side.end() && it->first == i,
                    "packed trace: missing overflow entry for ref %zu",
                    i);
        return it->second;
    }

    std::vector<LineAddr> line_;
    std::vector<std::uint16_t> gap_;
    std::vector<std::uint16_t> pc_idx_;
    std::vector<std::uint64_t> write_bits_;
    std::vector<std::uint64_t> pc_table_;

    /** Rare spills, sorted by reference index (appends are monotonic). */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> gap_overflow_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pc_overflow_;

    /** Build-phase interning map; emptied by seal(). */
    FlatMap<std::uint64_t, std::uint32_t> pc_lookup_;
};

} // namespace dice

#endif // DICE_WORKLOADS_PACKED_TRACE_HPP
