/**
 * @file
 * Process-wide store of pre-generated reference streams.
 *
 * Every cell of a bench sweep simulates some (workload, organization)
 * pair, but the reference stream a cell consumes depends only on
 * (workload, seed, num_cores, reference_capacity, stream length) —
 * not on the L4 organization under test. Re-deriving it per cell made
 * trace generation a per-column cost; the arena makes it a per-stream
 * cost: the first request for a key generates all per-core streams in
 * parallel into packed SoA buffers (PackedTrace, ~12 B/reference) and
 * every later request replays the same immutable set.
 *
 * Concurrency: requests are deduplicated with per-key futures, so
 * racing sweep workers never generate a stream twice. Memory: resident
 * sets are LRU-evicted past a 512 MiB byte budget (callers keep
 * shared_ptr ownership, so eviction only drops the cache entry, never
 * a stream in use).
 *
 * Persistence: misses fall back disk-before-generate through an
 * ArenaStore under `bench_cache/arena/` — a stream any process on
 * this machine (or this shared filesystem) ever generated is loaded
 * back instead of regenerated, and freshly generated streams are
 * spilled for everyone else. O_EXCL claim files make generation
 * exactly-once across concurrent worker processes. The directory
 * comes from arenaStoreDir() (common/knobs.hpp): DICE_ARENA_DIR, else
 * <cache dir>/arena, and off together with the result cache under
 * DICE_BENCH_NO_CACHE.
 *
 * Observability: with a sweep journal open, a miss journals an
 * arena_load span around the store lookup and an arena_spill span
 * around the spill, then an `arena` record of its outcome (disk_hit
 * or generate, and spill); each budget eviction journals an `evict`
 * record with the stream's key and bytes once the arena lock is
 * released.
 */

#ifndef DICE_WORKLOADS_TRACE_ARENA_HPP
#define DICE_WORKLOADS_TRACE_ARENA_HPP

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "workloads/packed_trace.hpp"
#include "workloads/profile.hpp"

namespace dice
{

class ArenaStore;

/** All per-core streams of one (workload, seed, ...) key. */
struct TraceSet
{
    std::vector<PackedTrace> streams; // one per core

    /** Aliasing view of one core's stream (shares ownership). */
    static std::shared_ptr<const PackedTrace>
    stream(const std::shared_ptr<const TraceSet> &set,
           std::uint32_t cid)
    {
        return std::shared_ptr<const PackedTrace>(
            set, &set->streams.at(cid));
    }

    std::size_t
    bytes() const
    {
        std::size_t total = 0;
        for (const PackedTrace &t : streams)
            total += t.bytes();
        return total;
    }
};

/**
 * Generate @p refs_per_core references for every core, one parallelFor
 * task per core across @p jobs threads. Pure function of its inputs;
 * the arena calls it on a miss, and tests/benchmarks call it directly
 * to build replay sets without touching the process-wide cache.
 */
std::shared_ptr<const TraceSet>
generateTraceSet(const std::vector<WorkloadProfile> &profiles,
                 std::uint32_t num_cores,
                 std::uint64_t reference_capacity, std::uint64_t seed,
                 std::uint64_t refs_per_core, unsigned jobs);

/** Keyed, LRU-bounded, thread-safe cache of TraceSets. */
class TraceArena
{
  public:
    /** The process-wide instance the bench harness shares. */
    static TraceArena &instance();

    /** Starts with a 512 MiB resident byte budget. */
    TraceArena();

    ~TraceArena();

    /**
     * Return the streams for the key, generating them (once, even
     * under concurrent requests) on first use. @p profiles must be
     * the per-core profiles the key's workload name denotes.
     */
    std::shared_ptr<const TraceSet>
    acquire(const std::string &workload, std::uint64_t seed,
            std::uint32_t num_cores, std::uint64_t reference_capacity,
            std::uint64_t refs_per_core,
            const std::vector<WorkloadProfile> &profiles, unsigned jobs);

    /** Monotonic counters (exactly-once generation is testable). */
    struct Stats
    {
        std::uint64_t generations = 0; ///< Streams built from scratch.
        std::uint64_t hits = 0;        ///< Served resident or in-flight.
        std::uint64_t evictions = 0;   ///< Entries dropped by the LRU.
        std::uint64_t disk_hits = 0;   ///< Loaded from the ArenaStore.
        std::uint64_t spills = 0;      ///< Generated sets spilled to disk.
        std::uint64_t resident_bytes = 0;
        std::uint64_t entries = 0;
    };

    Stats stats() const;

    /**
     * The same counters as a telemetry group ("trace_arena"), for
     * registration in a StatRegistry. Values are read live (each
     * formula snapshots the counters under the arena lock), so a
     * per-cell stats export shows arena behavior as of that cell.
     */
    StatGroup statGroup() const;

    /** Override the byte budget (tests); evicts down immediately. */
    void setByteBudget(std::uint64_t bytes);

    /** Drop every resident entry and zero the counters (tests). */
    void clear();

    /**
     * Override the persistent store location (tests): a path pins the
     * spill directory, an empty string disables the store, and
     * std::nullopt restores arenaStoreDir().
     */
    void setStoreDirForTest(std::optional<std::string> dir);

  private:
    using Key = std::tuple<std::string, std::uint64_t, std::uint32_t,
                           std::uint64_t, std::uint64_t>;

    struct Entry
    {
        std::shared_future<std::shared_ptr<const TraceSet>> future;
        std::uint64_t lru_tick = 0;
        std::size_t bytes = 0; ///< 0 until generation completes.
    };

    /** A budget eviction to journal: stream key and bytes. */
    using Eviction = std::pair<std::string, std::uint64_t>;

    /** Evict LRU-complete entries until the budget holds. Locked.
     *  Returns the evictions to journal (none with no journal open). */
    std::vector<Eviction> evictOverBudgetLocked();

    /** The persistent store to use right now (null = disabled). */
    std::unique_ptr<ArenaStore> storeForUse() const;

    mutable std::mutex mu_;
    std::map<Key, Entry> entries_;
    std::uint64_t budget_bytes_;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t generations_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t disk_hits_ = 0;
    std::uint64_t spills_ = 0;
    /** Test override: nullopt = env default, "" = store disabled. */
    std::optional<std::string> store_dir_override_;
};

} // namespace dice

#endif // DICE_WORKLOADS_TRACE_ARENA_HPP
