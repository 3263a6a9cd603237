#include "page_alloc.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace dice
{
namespace
{

/**
 * Freed blocks stay mapped for reuse, oldest unmapped first past
 * these bounds: a cell on each pool thread frees one array, and the
 * next cell there takes it back without faulting its pages in again.
 */
constexpr std::size_t kMaxIdleBlocks = 16;
constexpr std::size_t kMaxIdleBytes = std::size_t{64} << 20;

std::size_t
pageBytes()
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

/** @p bytes rounded up to whole pages. */
std::size_t
spanOf(std::size_t bytes)
{
    const std::size_t page = pageBytes();
    return (bytes + page - 1) / page * page;
}

/** Unmap a block of @p bytes that ends at its guard page. */
void
unmapBlock(void *p, std::size_t bytes)
{
    const std::size_t span = spanOf(bytes);
    munmap(static_cast<std::uint8_t *>(p) + bytes - span,
           span + pageBytes());
}

/** Freed blocks as (bytes, block), oldest first. */
struct IdleBlocks
{
    IdleBlocks() { blocks.reserve(kMaxIdleBlocks + 1); }

    std::mutex mu;
    std::vector<std::pair<std::size_t, void *>> blocks;
    std::size_t bytes = 0;
};

IdleBlocks &
idle()
{
    static IdleBlocks *const pool = new IdleBlocks; // never destroyed
    return *pool;
}

std::atomic<std::size_t> g_handed_out{0};

} // namespace

void *
mapPages(std::size_t bytes)
{
    g_handed_out.fetch_add(1, std::memory_order_relaxed);
    {
        IdleBlocks &pool = idle();
        std::lock_guard lock(pool.mu);
        for (auto it = pool.blocks.rbegin(); it != pool.blocks.rend();
             ++it) {
            if (it->first == bytes) {
                void *p = it->second;
                pool.blocks.erase(std::next(it).base());
                pool.bytes -= bytes;
                return p;
            }
        }
    }
    const std::size_t span = spanOf(bytes);
    void *base = mmap(nullptr, span + pageBytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    auto *guard = static_cast<std::uint8_t *>(base) + span;
    if (mprotect(guard, pageBytes(), PROT_NONE) != 0) {
        munmap(base, span + pageBytes());
        throw std::bad_alloc();
    }
    // End the block at the guard page. The block is a whole number of
    // elements, so its start keeps the element alignment.
    return guard - bytes;
}

void
unmapPages(void *p, std::size_t bytes) noexcept
{
    IdleBlocks &pool = idle();
    std::lock_guard lock(pool.mu);
    pool.blocks.emplace_back(bytes, p); // within the reserved capacity
    pool.bytes += bytes;
    while (pool.blocks.size() > kMaxIdleBlocks ||
           pool.bytes > kMaxIdleBytes) {
        const auto [oldest_bytes, oldest] = pool.blocks.front();
        pool.blocks.erase(pool.blocks.begin());
        pool.bytes -= oldest_bytes;
        unmapBlock(oldest, oldest_bytes);
    }
}

std::size_t
pageBlocksHandedOut()
{
    return g_handed_out.load(std::memory_order_relaxed);
}

} // namespace dice
