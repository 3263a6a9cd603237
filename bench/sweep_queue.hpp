/**
 * @file
 * Cell claim queue for distributed sweeps.
 *
 * A shared-filesystem claim queue: every participant — spawned
 * workers, `--join` attachers from other processes or other hosts
 * sharing the filesystem, and the coordinator once its workers are
 * gone — loops "claim the next unowned cell, simulate it, publish its
 * per-cell document, release the lease" until every cell of the batch
 * is published. Whoever is free takes the next cell, so the makespan
 * is not bounded by an unlucky fixed share of the batch, and a
 * crashed worker's cells go to whoever is left.
 *
 * Coordination is the O_EXCL claim/lease protocol of
 * src/common/claim_file.hpp, applied per cell:
 *
 *  - A cell is *claimed* by creating `leases/<stem>.lease` with
 *    O_EXCL. A background thread refreshes every held lease's mtime,
 *    so a live holder never goes stale no matter how long its cell
 *    simulates.
 *  - A cell is *done* when `<stem>.cell.json` exists in the results
 *    directory (written via temp + atomic rename, so a torn document
 *    is never observed). Publishing is idempotent: a cell reclaimed
 *    after a lease expiry may be simulated twice, but both claimants
 *    render identical bytes (the simulation is deterministic) and the
 *    atomic rename makes the second publish harmless.
 *  - A lease whose holder died (same-host pid probe) or went stale
 *    (mtime older than 30 s; holders refresh every 5 s) is silently
 *    broken and the cell is *requeued* — any peer reclaims it. This
 *    is the whole retry/requeue policy: a crashed or wedged worker's
 *    cells return to the queue instead of falling back to serial
 *    absorption.
 *
 * Cells are handed out longest-expected-first (cost estimated from
 * trace length × cores × an organization weight), which shrinks the
 * makespan tail: the expensive cells start immediately instead of
 * landing late on an already-loaded worker.
 *
 * The queue never touches result *values* — workers publish
 * RunResults through the shared persistent bench cache exactly as
 * before, and the coordinator still merges in canonical cell order,
 * so stdout, golden digests, and the merged document stay
 * byte-identical to a serial run no matter which worker computed
 * which cell or how many times a cell was reclaimed.
 */

#ifndef DICE_BENCH_SWEEP_QUEUE_HPP
#define DICE_BENCH_SWEEP_QUEUE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/sweep_events.hpp"

namespace dice::bench
{

/** Microseconds elapsed since @p t0. */
inline std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** One queue entry: a batch cell's identity and expected cost. */
struct QueueCell
{
    /** Sanitized file stem (names the lease and the per-cell doc). */
    std::string stem;
    /** Index into the batch's canonical cell vector. */
    std::size_t canonical_index = 0;
    /** Expected simulation cost (arbitrary units; larger = longer). */
    double cost = 0.0;
};

/** What this participant did to the queue (its own work only). */
struct QueueStats
{
    std::uint64_t claimed = 0;   ///< Cells this participant claimed.
    std::uint64_t published = 0; ///< Cells it published documents for.
    /** Claims acquired by breaking an expired/dead-holder lease. */
    std::uint64_t requeued = 0;
};

/**
 * One participant's view of a batch's shared claim queue. Thread-safe
 * in-process: a worker runs one claim loop per bench job, all against
 * the same SweepQueue instance.
 */
class SweepQueue
{
  public:
    /**
     * Attach to the queue for a batch whose canonical cells are
     * @p cells, under @p results_dir (shared by every participant).
     */
    SweepQueue(std::filesystem::path results_dir,
               std::vector<QueueCell> cells);

    /** Stops the lease refresher and releases any still-held leases
     *  (abandoned cells return to the queue for peers). */
    ~SweepQueue();

    SweepQueue(const SweepQueue &) = delete;
    SweepQueue &operator=(const SweepQueue &) = delete;

    /**
     * Claim the most expensive cell not yet done or held by a live
     * peer. nullopt means nothing is claimable *right now* — either
     * the batch is complete() or every remaining cell is held by a
     * live holder (poll again: a holder may crash and requeue its
     * cells). Returns an index into cells().
     *
     * @p wait_us is how long the calling claim loop has been free
     * (since its last publish, or since it started); on a successful
     * claim it is recorded as the cell's claim-wait latency and
     * carried on the journal's claim event.
     */
    std::optional<std::size_t> claimNext(std::uint64_t wait_us = 0);

    /**
     * Publish @p idx's per-cell document and release its lease. Best
     * effort on I/O failure: the cell is still marked done locally
     * (the result also lives in the shared bench cache).
     */
    void publish(std::size_t idx, const std::string &doc);

    /**
     * Cells of this batch with a published document (any publisher).
     * Rescans the filesystem at most every 0.2 s, unless @p fresh:
     * then it rescans now (a caller about to act on the count).
     */
    std::size_t doneCount(bool fresh = false);

    /** Whether every cell of the batch is published. */
    bool complete() { return doneCount() == cells_.size(); }

    std::size_t size() const { return cells_.size(); }
    const QueueCell &cell(std::size_t idx) const { return cells_[idx]; }
    QueueStats stats() const;

    /** Paths (under the results dir) owned by @p stem. */
    static std::filesystem::path
    docPath(const std::filesystem::path &results_dir,
            const std::string &stem);
    static std::filesystem::path
    leasePath(const std::filesystem::path &results_dir,
              const std::string &stem);

  private:
    enum class State : std::uint8_t
    {
        Pending, ///< Not done, not held by this participant.
        Held,    ///< Leased by this participant, simulation running.
        Done     ///< Document observed (published by anyone).
    };

    void refresherLoop();
    void markDoneLocked(std::size_t idx);

    const std::filesystem::path results_dir_;
    const std::filesystem::path lease_dir_;
    const std::vector<QueueCell> cells_;

    mutable std::mutex mu_;
    std::vector<State> state_;
    std::vector<std::size_t> cost_order_; ///< Indices, cost-descending.
    std::size_t done_ = 0;
    QueueStats stats_;
    /** Last filesystem rescan for doneCount() (monotonic seconds). */
    double last_scan_s_ = -1.0;

    std::condition_variable refresher_cv_;
    bool stop_ = false;
    std::thread refresher_;
};

} // namespace dice::bench

#endif // DICE_BENCH_SWEEP_QUEUE_HPP
