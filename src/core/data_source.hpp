/**
 * @file
 * Interface through which the compressed DRAM cache obtains the raw
 * bytes of a line so it can *really* compress them.
 *
 * The simulator does not store 64 B of data per cached line; instead a
 * line's contents are a deterministic function of (line address, version)
 * where the version is bumped by stores. The workloads library provides
 * the concrete generator; the cache only sees this interface.
 */

#ifndef DICE_CORE_DATA_SOURCE_HPP
#define DICE_CORE_DATA_SOURCE_HPP

#include "common/types.hpp"
#include "compress/compressor.hpp"

namespace dice
{

/** Produces the current bytes of any line in the simulated PA space. */
class LineDataSource
{
  public:
    virtual ~LineDataSource() = default;

    /** Bytes of @p line at data version @p version. */
    virtual Line bytes(LineAddr line, std::uint64_t version) const = 0;

    /**
     * Bytes of the spatial pair (@p base, @p base|1) in one call;
     * @p base must be even. Always identical to two bytes() calls. No
     * cache calls it (each install synthesizes its own line, and the
     * pair pass only the neighbor); it stays only because the
     * benchmark's forwarding source (perfbench/traced.cpp) overrides
     * it, and goes with that override.
     */
    virtual void
    bytesPair(LineAddr base, std::uint64_t even_version,
              std::uint64_t odd_version, Line out[2]) const
    {
        out[0] = bytes(base, even_version);
        out[1] = bytes(base | 1, odd_version);
    }
};

/** A trivial source: every line is all zeroes (maximally compressible). */
class ZeroDataSource : public LineDataSource
{
  public:
    Line
    bytes(LineAddr, std::uint64_t) const override
    {
        return Line{};
    }
};

/** A trivial source: every line is incompressible random-looking data. */
class RandomDataSource : public LineDataSource
{
  public:
    Line bytes(LineAddr line, std::uint64_t version) const override;
};

} // namespace dice

#endif // DICE_CORE_DATA_SOURCE_HPP
