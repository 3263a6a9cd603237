/**
 * @file
 * Synthetic line-data generation.
 *
 * Data is a pure function of (line address, version, owning profile):
 * each page is assigned a compressibility class from its region's
 * profile weights, and every line in the page is synthesized in that
 * class (with a small per-line noise probability), reproducing the
 * page-granularity compressibility correlation that both the DICE
 * insertion heuristic and CIP rely on (paper Sections 5.2-5.3).
 *
 * The classes map onto *real* encodings of the FPC/BDI hybrid codec:
 * the cache compresses the generated bytes, nothing is faked.
 */

#ifndef DICE_WORKLOADS_DATAGEN_HPP
#define DICE_WORKLOADS_DATAGEN_HPP

#include <vector>

#include "core/data_source.hpp"
#include "workloads/profile.hpp"

namespace dice
{

/** Compressibility class of a page (see profile weight fields). */
enum class CompClass : std::uint8_t
{
    Zero, ///< All-zero line: ZCA, 0 B.
    Ptr,  ///< Pointer array: BDI B8D1, 16 B (pairs share the base).
    Int,  ///< Small integers: BDI B4D1, 20 B.
    C36,  ///< Wide-delta ints: BDI B4D2, exactly 36 B (pair = 68 B).
    Half, ///< Half-compressible floats: FPC, ~54 B.
    Rand, ///< Incompressible, 64 B.
};

/** Printable class name. */
const char *compClassName(CompClass cls);

/**
 * Deterministic line-byte generator over a set of per-core regions.
 * Implements the LineDataSource interface the compressed cache uses.
 */
class DataGenerator : public LineDataSource
{
  public:
    /** Per-line probability of deviating from the page class. */
    static constexpr double kNoiseFraction = 0.03;

    /** Register the region [start, end) as owned by @p profile. */
    void addRegion(LineAddr start, LineAddr end,
                   const WorkloadProfile &profile);

    /** Class assigned to the page containing @p line (pre-noise). */
    CompClass pageClass(LineAddr line) const;

    /** Effective class of @p line (page class with noise applied). */
    CompClass lineClass(LineAddr line) const;

    Line bytes(LineAddr line, std::uint64_t version) const override;

    /** Synthesize a line of class @p cls directly (used by tests). */
    static Line synthesize(CompClass cls, LineAddr line,
                           std::uint64_t version);

  private:
    struct Region
    {
        LineAddr start;
        LineAddr end;
        const WorkloadProfile *profile;
        /** Prefix sums of the profile's class weights (CompClass order). */
        double cum_weights[6];
    };

    const Region *regionOf(LineAddr line) const;

    /** pageClass() with the owning region already resolved. */
    CompClass regionClass(const Region *r, LineAddr line) const;

    std::vector<Region> regions_;
};

} // namespace dice

#endif // DICE_WORKLOADS_DATAGEN_HPP
