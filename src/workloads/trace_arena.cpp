#include "trace_arena.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/sweep_events.hpp"
#include "common/rng.hpp"
#include "workloads/arena_store.hpp"
#include "workloads/region_plan.hpp"

namespace dice
{

namespace
{

/** Default resident budget when DICE_TRACE_ARENA_BYTES is unset. */
constexpr std::uint64_t kDefaultBudgetBytes = 512_MiB;

/** How long a miss waits on another process's generation claim before
 *  giving up and generating its own copy (DICE_ARENA_WAIT_MS). */
std::uint64_t
claimWaitMs()
{
    if (const char *env = std::getenv("DICE_ARENA_WAIT_MS"))
        return std::strtoull(env, nullptr, 10);
    return 120'000;
}

/** Environment-derived spill directory ("" = store disabled). */
std::string
storeDirFromEnv()
{
    if (std::getenv("DICE_BENCH_NO_CACHE") != nullptr)
        return "";
    if (const char *env = std::getenv("DICE_ARENA_DIR"))
        return env;
    std::string base = "bench_cache";
    if (const char *env = std::getenv("DICE_BENCH_CACHE_DIR"))
        base = env;
    return base + "/arena";
}

/**
 * The cross-process protocol of a store-backed miss. Returns true with
 * @p out filled when the stream came off disk (possibly after waiting
 * out another process's generation); returns false with @p claim held
 * (when claimable) when the caller must generate — and, via the claim,
 * has the exclusive right to. A waiter whose claim holder dies
 * recovers by breaking the stale claim and taking over; one whose wait
 * times out generates a duplicate rather than stalling forever.
 */
bool
loadOrAwait(const ArenaStore &store, const ArenaStoreKey &key,
            ArenaStore::Claim &claim,
            std::shared_ptr<const TraceSet> &out)
{
    if (store.load(key, out))
        return true;

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(claimWaitMs());
    for (;;) {
        if (store.tryClaim(key, claim)) {
            // Double-check under the claim: the previous holder may
            // have published between our load miss and its release.
            if (store.load(key, out)) {
                claim.release();
                return true;
            }
            return false;
        }
        // Another live process is generating this key: poll for its
        // result instead of burning CPU on a duplicate.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        if (store.load(key, out))
            return true;
        if (std::chrono::steady_clock::now() >= deadline) {
            dice_warn("arena: waited %llu ms on claim for %s; "
                      "generating a duplicate",
                      static_cast<unsigned long long>(claimWaitMs()),
                      key.workload.c_str());
            return false;
        }
    }
}

/** A stream's name in journal records and spans. */
std::string
journalKey(const std::string &workload, std::uint64_t seed)
{
    return workload + ".s" + std::to_string(seed);
}

} // namespace

std::shared_ptr<const TraceSet>
generateTraceSet(const std::vector<WorkloadProfile> &profiles,
                 std::uint32_t num_cores,
                 std::uint64_t reference_capacity, std::uint64_t seed,
                 std::uint64_t refs_per_core, unsigned jobs)
{
    dice_assert(profiles.size() == num_cores,
                "expected %u per-core profiles, got %zu", num_cores,
                profiles.size());
    const std::vector<CoreRegion> regions =
        planCoreRegions(num_cores, reference_capacity, profiles);

    auto set = std::make_shared<TraceSet>();
    set->streams.resize(num_cores);
    parallelFor(num_cores, jobs, [&](std::size_t cid) {
        TraceGenerator gen(profiles[cid], regions[cid].start,
                           regions[cid].lines,
                           mix64(seed, static_cast<std::uint64_t>(cid)));
        PackedTrace &trace = set->streams[cid];
        trace.reserve(refs_per_core);
        for (std::uint64_t r = 0; r < refs_per_core; ++r)
            trace.append(gen.next());
        trace.seal();
    });
    return set;
}

TraceArena &
TraceArena::instance()
{
    static TraceArena arena;
    return arena;
}

TraceArena::TraceArena() : budget_bytes_(kDefaultBudgetBytes)
{
    if (const char *env = std::getenv("DICE_TRACE_ARENA_BYTES"))
        budget_bytes_ = std::strtoull(env, nullptr, 10);
}

TraceArena::~TraceArena() = default;

std::unique_ptr<ArenaStore>
TraceArena::storeForUse() const
{
    std::string dir;
    {
        std::unique_lock lock(mu_);
        dir = store_dir_override_.has_value() ? *store_dir_override_
                                              : storeDirFromEnv();
    }
    if (dir.empty())
        return nullptr;
    return std::make_unique<ArenaStore>(dir);
}

std::shared_ptr<const TraceSet>
TraceArena::acquire(const std::string &workload, std::uint64_t seed,
                    std::uint32_t num_cores,
                    std::uint64_t reference_capacity,
                    std::uint64_t refs_per_core,
                    const std::vector<WorkloadProfile> &profiles,
                    unsigned jobs)
{
    const Key key{workload, seed, num_cores, reference_capacity,
                  refs_per_core};

    std::promise<std::shared_ptr<const TraceSet>> promise;
    {
        std::unique_lock lock(mu_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Resident or in flight either way: the requester shares
            // the one generation instead of starting its own.
            ++hits_;
            it->second.lru_tick = ++lru_clock_;
            auto future = it->second.future;
            lock.unlock();
            return future.get();
        }
        Entry entry;
        entry.future = promise.get_future().share();
        entry.lru_tick = ++lru_clock_;
        entries_.emplace(key, std::move(entry));
    }

    // Fill the entry outside the lock; waiters block on the shared
    // future. Disk before generate: any stream some process already
    // paid for is loaded back from the persistent store, and a
    // generation claim keeps concurrent worker processes from
    // duplicating the work we are about to do.
    const std::unique_ptr<ArenaStore> store = storeForUse();
    const ArenaStoreKey skey{workload, seed, num_cores,
                             reference_capacity, refs_per_core};
    const std::string jkey = journalKey(workload, seed);
    std::shared_ptr<const TraceSet> set;
    bool from_disk = false;
    bool spilled = false;
    ArenaStore::Claim claim;

    if (store != nullptr) {
        JournalSpan load_span("arena_load", jkey);
        from_disk = loadOrAwait(*store, skey, claim, set);
    }
    if (set == nullptr) {
        set = generateTraceSet(profiles, num_cores, reference_capacity,
                               seed, refs_per_core, jobs);
        if (store != nullptr) {
            JournalSpan spill_span("arena_spill", jkey);
            spilled = store->save(skey, *set);
        }
    }
    claim.release();
    promise.set_value(set);

    std::vector<Eviction> evicted;
    {
        std::unique_lock lock(mu_);
        if (from_disk)
            ++disk_hits_;
        else
            ++generations_;
        if (spilled)
            ++spills_;
        // clear() may have raced the generation; the set is still
        // handed to every waiter through the future either way.
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.bytes = set->bytes();
            resident_bytes_ += it->second.bytes;
            evicted = evictOverBudgetLocked();
        }
    }

    // Journal the arena outcome: a sweep timeline showing which cells
    // hit disk vs paid a full generation (or re-spilled) is usually
    // the answer to "why is worker 2 slower".
    SweepJournal &journal = SweepJournal::instance();
    journal.arena(from_disk ? "disk_hit" : "generate", jkey, set->bytes());
    if (spilled)
        journal.arena("spill", jkey, set->bytes());
    for (const auto &[victim, size] : evicted)
        journal.arena("evict", victim, size);
    return set;
}

std::vector<TraceArena::Eviction>
TraceArena::evictOverBudgetLocked()
{
    std::vector<Eviction> evicted;
    while (resident_bytes_ > budget_bytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.bytes == 0)
                continue; // still generating; nothing resident yet
            if (victim == entries_.end() ||
                it->second.lru_tick < victim->second.lru_tick)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        resident_bytes_ -= victim->second.bytes;
        // Budget-driven stream drops are exactly the events that
        // explain a sweep regenerating a trace it already paid for;
        // the caller journals them once the lock is released.
        if (SweepJournal::instance().enabled())
            evicted.emplace_back(journalKey(std::get<0>(victim->first),
                                            std::get<1>(victim->first)),
                                 victim->second.bytes);
        entries_.erase(victim);
        ++evictions_;
    }
    return evicted;
}

TraceArena::Stats
TraceArena::stats() const
{
    std::unique_lock lock(mu_);
    Stats s;
    s.generations = generations_;
    s.hits = hits_;
    s.evictions = evictions_;
    s.disk_hits = disk_hits_;
    s.spills = spills_;
    s.resident_bytes = resident_bytes_;
    s.entries = entries_.size();
    return s;
}

StatGroup
TraceArena::statGroup() const
{
    StatGroup g("trace_arena");
    g.addFormula("hits", [this]() { return double(stats().hits); });
    g.addFormula("misses",
                 [this]() { return double(stats().generations); });
    g.addFormula("evictions",
                 [this]() { return double(stats().evictions); });
    g.addFormula("disk_hits",
                 [this]() { return double(stats().disk_hits); });
    g.addFormula("spills", [this]() { return double(stats().spills); });
    g.addFormula("resident_bytes",
                 [this]() { return double(stats().resident_bytes); });
    g.addFormula("entries", [this]() { return double(stats().entries); });
    return g;
}

void
TraceArena::setByteBudget(std::uint64_t bytes)
{
    std::vector<Eviction> evicted;
    {
        std::unique_lock lock(mu_);
        budget_bytes_ = bytes;
        evicted = evictOverBudgetLocked();
    }
    for (const auto &[victim, size] : evicted)
        SweepJournal::instance().arena("evict", victim, size);
}

void
TraceArena::clear()
{
    std::unique_lock lock(mu_);
    entries_.clear();
    resident_bytes_ = 0;
    generations_ = 0;
    hits_ = 0;
    evictions_ = 0;
    disk_hits_ = 0;
    spills_ = 0;
    lru_clock_ = 0;
}

void
TraceArena::setStoreDirForTest(std::optional<std::string> dir)
{
    std::unique_lock lock(mu_);
    store_dir_override_ = std::move(dir);
}

} // namespace dice
