/**
 * @file
 * Persistent on-disk spill of TraceArena reference streams.
 *
 * Generating a sweep-scale reference stream costs seconds of CPU; the
 * in-process TraceArena already makes that a once-per-process cost,
 * and the ArenaStore makes it once-per-machine (or once per shared
 * filesystem): every generated TraceSet is serialized into
 * `bench_cache/arena/` and later processes — parallel sweep workers,
 * reruns of the same bench, entirely different bench binaries — load
 * the packed planes back instead of regenerating.
 *
 * On-disk format (one file per (workload, seed, cores, capacity,
 * length) key, named by a stable hash of the key):
 *
 *   [0]  magic   "DICEARNA"            (8 B)
 *   [8]  version u32 (kFormatVersion) + stream count u32
 *   [16] payload size u64
 *   [24] payload checksum u64 (FNV-1a)
 *   [32] payload: PackedTrace::serializeTo records, one per core,
 *        each 8-byte aligned (raw plane dumps — the file can be
 *        mmapped and the planes copied out with no decoding pass)
 *
 * Files are written to a unique temp name and atomically renamed, so
 * readers never observe torn writes; a truncated, corrupted, or
 * version-mismatched file fails validation and reads as a miss (the
 * caller regenerates and rewrites it).
 *
 * Cross-process dedup: before generating, a worker takes a claim file
 * (`<key>.claim`, created with O_EXCL via the shared claim/lease
 * protocol in common/claim_file.hpp) naming its pid and host. Other
 * workers that miss on the same key wait for the claim holder's
 * result instead of generating a duplicate. A claim whose process has
 * died (same host, pid gone) or whose file has gone stale (mtime
 * older than 600 s — the shared-filesystem fallback) is
 * broken with a warning, so a crashed worker never wedges later runs.
 */

#ifndef DICE_WORKLOADS_ARENA_STORE_HPP
#define DICE_WORKLOADS_ARENA_STORE_HPP

#include <cstdint>
#include <filesystem>
#include <string>

#include "workloads/trace_arena.hpp"

namespace dice
{

/** The cache key of one spilled TraceSet. */
struct ArenaStoreKey
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint32_t num_cores = 0;
    std::uint64_t reference_capacity = 0;
    std::uint64_t refs_per_core = 0;
};

/** Directory-backed persistent cache of serialized TraceSets. */
class ArenaStore
{
  public:
    /** Bump when the serialized stream layout changes. */
    static constexpr std::uint32_t kFormatVersion = 1;

    explicit ArenaStore(std::filesystem::path dir);

    const std::filesystem::path &dir() const { return dir_; }

    /** Stable file stem for @p key (readable prefix + key hash). */
    static std::string fileStem(const ArenaStoreKey &key);

    /** Path of the spill file for @p key. */
    std::filesystem::path resultPath(const ArenaStoreKey &key) const;

    /**
     * Load the spilled set for @p key into @p out. False — a miss —
     * for missing files and for any file that fails magic/version/
     * size/checksum validation or stream deserialization.
     */
    bool load(const ArenaStoreKey &key,
              std::shared_ptr<const TraceSet> &out) const;

    /**
     * Serialize @p set and atomically publish it as @p key's spill
     * file. False on I/O failure (the store is an optimization; the
     * caller keeps its in-memory set either way).
     */
    bool save(const ArenaStoreKey &key, const TraceSet &set) const;

    /** Serialize @p set into @p out exactly as save() writes it. */
    static void serialize(const TraceSet &set, std::string &out);

    /** Inverse of serialize(); false on any validation failure. */
    static bool deserialize(const char *data, std::size_t size,
                            TraceSet &out);

    /**
     * RAII ownership of a key's generation claim. release() (or the
     * destructor) removes the claim file; a process that dies while
     * holding one leaves it for stale-claim recovery.
     */
    class Claim
    {
      public:
        Claim() = default;
        ~Claim() { release(); }
        Claim(Claim &&other) noexcept { *this = std::move(other); }
        Claim &
        operator=(Claim &&other) noexcept
        {
            release();
            path_ = std::move(other.path_);
            other.path_.clear();
            return *this;
        }
        Claim(const Claim &) = delete;
        Claim &operator=(const Claim &) = delete;

        bool held() const { return !path_.empty(); }
        void release();

      private:
        friend class ArenaStore;
        std::filesystem::path path_;
    };

    /**
     * Try to become @p key's generator. True: @p claim now holds the
     * claim file (release it after save()). False: another live
     * process holds it — poll load() / claimHolderAlive() instead.
     * Stale claims (dead same-host pid, or mtime beyond the stale
     * threshold) are broken with a warning before retrying.
     */
    bool tryClaim(const ArenaStoreKey &key, Claim &claim) const;

    /**
     * Whether @p key's claim file still exists and is not stale. Used
     * by waiters: once the holder vanishes without publishing a
     * result, the waiter claims and generates itself.
     */
    bool claimHolderAlive(const ArenaStoreKey &key) const;

  private:
    std::filesystem::path claimPath(const ArenaStoreKey &key) const;

    std::filesystem::path dir_;
};

} // namespace dice

#endif // DICE_WORKLOADS_ARENA_STORE_HPP
