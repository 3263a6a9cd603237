/**
 * @file
 * Page-mapped storage for a cache's per-set array.
 *
 * A compressed L4's set array is the largest allocation of a cell
 * (8 MiB for the 8-MiB DICE cache). Through malloc, each free of such
 * a block raises glibc's dynamic mmap threshold, so later cells' large
 * blocks land in the arenas instead and the peak resident set grows
 * with no change in live data. PageAllocator maps every array with
 * mmap instead, so the arrays never enter or retune malloc's arenas.
 *
 * - Each block ends flush against a PROT_NONE guard page: an overrun
 *   faults at once, sanitizers or not (mapped memory carries no
 *   sanitizer redzones).
 * - A freed block stays mapped, up to 16 blocks and 64 MiB, and the
 *   next request of the same size takes it back, so a new cell does
 *   not fault its 2,048 pages of sets in again.
 */

#ifndef DICE_COMMON_PAGE_ALLOC_HPP
#define DICE_COMMON_PAGE_ALLOC_HPP

#include <cstddef>
#include <vector>

namespace dice
{

/**
 * A block of @p bytes of uninitialized read-write memory whose last
 * byte sits just below a PROT_NONE guard page. Throws std::bad_alloc
 * on failure.
 */
void *mapPages(std::size_t bytes);

/** Return a mapPages() block of @p bytes (kept for reuse or unmapped). */
void unmapPages(void *p, std::size_t bytes) noexcept;

/**
 * Blocks mapPages() has handed out so far, fresh or reused: these
 * allocations bypass operator new, so allocation counters add them.
 */
std::size_t pageBlocksHandedOut();

/** Standard allocator over mapPages()/unmapPages(). */
template <typename T>
class PageAllocator
{
  public:
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(mapPages(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        unmapPages(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A fixed-size per-set array in page-mapped storage. */
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace dice

#endif // DICE_COMMON_PAGE_ALLOC_HPP
