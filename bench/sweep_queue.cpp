#include "sweep_queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/claim_file.hpp"
#include "common/log.hpp"

namespace dice::bench
{

namespace
{

/** Age after which a lease is broken and its cell requeued. A
 *  same-host holder's death is seen sooner, by its pid; this bounds
 *  how long a crashed holder on another host keeps its cell. */
constexpr std::uint64_t kLeaseStaleSeconds = 30;

/** How often a holder refreshes its leases, well inside that age. */
constexpr auto kLeaseRefreshInterval = std::chrono::seconds(5);

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::filesystem::path
SweepQueue::docPath(const std::filesystem::path &results_dir,
                    const std::string &stem)
{
    return results_dir / (stem + ".cell.json");
}

std::filesystem::path
SweepQueue::leasePath(const std::filesystem::path &results_dir,
                      const std::string &stem)
{
    return results_dir / "leases" / (stem + ".lease");
}

SweepQueue::SweepQueue(std::filesystem::path results_dir,
                       std::vector<QueueCell> cells)
    : results_dir_(std::move(results_dir)),
      lease_dir_(results_dir_ / "leases"), cells_(std::move(cells)),
      state_(cells_.size(), State::Pending)
{
    std::error_code ec;
    std::filesystem::create_directories(lease_dir_, ec);

    // Longest-expected-first hands the batch's expensive tail out
    // immediately; ties fall back to canonical order so the schedule
    // is deterministic across participants.
    cost_order_.resize(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i)
        cost_order_[i] = i;
    std::stable_sort(cost_order_.begin(), cost_order_.end(),
                     [this](std::size_t a, std::size_t b) {
                         if (cells_[a].cost != cells_[b].cost)
                             return cells_[a].cost > cells_[b].cost;
                         return cells_[a].canonical_index <
                                cells_[b].canonical_index;
                     });

    refresher_ = std::thread([this] { refresherLoop(); });
}

SweepQueue::~SweepQueue()
{
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    refresher_cv_.notify_all();
    if (refresher_.joinable())
        refresher_.join();

    // Leases still held name cells this participant claimed but never
    // published (an exiting worker mid-teardown): release them so
    // peers reclaim immediately instead of waiting out staleness.
    std::error_code ec;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (state_[i] == State::Held) {
            std::filesystem::remove(leasePath(results_dir_,
                                              cells_[i].stem),
                                    ec);
            SweepJournal::instance().lease("release", cells_[i].stem,
                                           0);
        }
    }
}

void
SweepQueue::markDoneLocked(std::size_t idx)
{
    if (state_[idx] != State::Done) {
        state_[idx] = State::Done;
        ++done_;
    }
}

std::optional<std::size_t>
SweepQueue::claimNext(std::uint64_t wait_us)
{
    std::lock_guard lock(mu_);
    for (const std::size_t idx : cost_order_) {
        if (state_[idx] != State::Pending)
            continue;
        const QueueCell &c = cells_[idx];
        if (std::filesystem::exists(docPath(results_dir_, c.stem))) {
            markDoneLocked(idx);
            continue;
        }

        const std::filesystem::path lease =
            leasePath(results_dir_, c.stem);
        const auto acquire_t0 = std::chrono::steady_clock::now();
        ClaimAttempt attempt = createClaimFile(lease);
        bool via_requeue = false;
        if (attempt == ClaimAttempt::Busy) {
            if (claimFileLive(lease, kLeaseStaleSeconds))
                continue; // live holder: take something else
            // The lease is gone or stale — but publish() writes the
            // document *before* releasing the lease, so a holder that
            // just finished is distinguishable from one that crashed:
            // recheck the document before declaring a requeue.
            if (std::filesystem::exists(
                    docPath(results_dir_, c.stem))) {
                markDoneLocked(idx);
                continue;
            }
            // Expired lease: the holder crashed or wedged. Break it
            // and retake via O_EXCL so racing breakers cannot both
            // win; losing the retake means a peer got there first.
            dice_warn("sweep: requeueing cell %s (lease holder "
                      "dead or stale)",
                      c.stem.c_str());
            SweepJournal::instance().lease("break", c.stem, 0);
            std::error_code ec;
            std::filesystem::remove(lease, ec);
            attempt = createClaimFile(lease);
            via_requeue = attempt == ClaimAttempt::Acquired;
            if (attempt == ClaimAttempt::Busy)
                continue;
        }
        // The document check above ran before the lease was ours: a
        // holder that finished in between wrote its document and then
        // released the lease we just took. Recheck under the lease,
        // or the finished cell is simulated and published twice.
        if (attempt == ClaimAttempt::Acquired &&
            std::filesystem::exists(docPath(results_dir_, c.stem))) {
            std::error_code ec;
            std::filesystem::remove(lease, ec);
            markDoneLocked(idx);
            continue;
        }
        // Acquired — or Error (unclaimable results dir: read-only or
        // no O_EXCL). On Error every participant degrades to claiming
        // everything in-process; they duplicate work but each still
        // completes the batch by itself.
        state_[idx] = State::Held;
        ++stats_.claimed;
        if (via_requeue)
            ++stats_.requeued;
        const std::uint64_t acquire_us = elapsedUs(acquire_t0);
        SweepMetrics::instance().sample(SweepPhase::LeaseAcquire,
                                        acquire_us);
        SweepMetrics::instance().sample(SweepPhase::ClaimWait, wait_us);
        SweepJournal::instance().claim(c.stem, via_requeue, wait_us,
                                       acquire_us);
        return idx;
    }
    return std::nullopt;
}

void
SweepQueue::publish(std::size_t idx, const std::string &doc)
{
    dice_assert(idx < cells_.size(), "bad queue cell index");
    const QueueCell &c = cells_[idx];
    if (!atomicWriteFile(docPath(results_dir_, c.stem), doc))
        dice_warn("sweep: cannot publish cell doc %s", c.stem.c_str());
    std::error_code ec;
    std::filesystem::remove(leasePath(results_dir_, c.stem), ec);
    SweepJournal::instance().publish(c.stem);
    SweepJournal::instance().lease("release", c.stem, 0);

    std::lock_guard lock(mu_);
    dice_assert(state_[idx] == State::Held,
                "publishing a cell that was not claimed");
    ++stats_.published;
    markDoneLocked(idx);
}

std::size_t
SweepQueue::doneCount(bool fresh)
{
    std::lock_guard lock(mu_);
    if (done_ == cells_.size())
        return done_;
    // Throttle the filesystem rescan: idle claim loops poll complete()
    // every ~50 ms, and one exists() per pending cell per poll adds up
    // on large batches.
    const double now = monotonicSeconds();
    if (!fresh && last_scan_s_ >= 0.0 && now - last_scan_s_ < 0.2)
        return done_;
    last_scan_s_ = now;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        if (state_[i] == State::Pending &&
            std::filesystem::exists(
                docPath(results_dir_, cells_[i].stem)))
            markDoneLocked(i);
    }
    return done_;
}

QueueStats
SweepQueue::stats() const
{
    std::lock_guard lock(mu_);
    return stats_;
}

void
SweepQueue::refresherLoop()
{
    // Refresh held leases well under the staleness threshold so a
    // long-simulating holder is never mistaken for a dead one.
    std::unique_lock lock(mu_);
    for (;;) {
        if (refresher_cv_.wait_for(lock, kLeaseRefreshInterval,
                                   [this] { return stop_; }))
            return;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (state_[i] == State::Held) {
                const auto t0 = std::chrono::steady_clock::now();
                refreshClaimFile(
                    leasePath(results_dir_, cells_[i].stem));
                const std::uint64_t us = elapsedUs(t0);
                SweepMetrics::instance().sample(
                    SweepPhase::LeaseRefresh, us);
                SweepJournal::instance().lease("refresh",
                                               cells_[i].stem, us);
            }
        }
    }
}

} // namespace dice::bench
