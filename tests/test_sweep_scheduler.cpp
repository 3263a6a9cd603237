/**
 * @file
 * Tests of the sweep scheduler: the shared claim/lease protocol
 * (common/claim_file.hpp), the cell claim queue's cost ordering and
 * exactly-once claim handout — including a forked two-claimant fuzz
 * race — requeue of a SIGKILLed holder's cells, and a --join-style
 * participant attaching to a half-drained batch. The byte-identity of
 * distributed vs serial sweep *output* is covered end-to-end by the
 * sweep_contract ctest; these tests pin the scheduling machinery
 * itself.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sweep_queue.hpp"

#include "common/claim_file.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace dice
{
namespace
{

namespace fs = std::filesystem;
using bench::QueueCell;
using bench::SweepQueue;

/** Fresh per-test scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &tag)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("dice_sweep_sched." + tag + "." + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** A batch of @p n cells with descending-index cost n-1, n-2, ... */
std::vector<QueueCell>
cellsAscendingCost(std::size_t n)
{
    std::vector<QueueCell> cells;
    for (std::size_t i = 0; i < n; ++i)
        cells.push_back(QueueCell{"cell" + std::to_string(i), i,
                                  static_cast<double>(i)});
    return cells;
}

TEST(ClaimFile, BodyRoundTripsAndSelfIsAlive)
{
    const fs::path dir = scratchDir("body");
    const fs::path path = dir / "probe.lease";

    ASSERT_EQ(createClaimFile(path), ClaimAttempt::Acquired);
    std::string content;
    {
        std::ifstream in(path);
        std::getline(in, content);
    }
    long pid = 0;
    std::string host;
    ASSERT_TRUE(parseClaimBody(content + "\n", pid, host));
    EXPECT_EQ(pid, claimPid());
    EXPECT_EQ(host, claimHost());
    EXPECT_TRUE(claimPidAlive(pid));

    // A live same-host claim is live regardless of mtime threshold.
    EXPECT_TRUE(claimFileLive(path, 3600));
    fs::remove_all(dir);
}

TEST(ClaimFile, SecondCreateIsBusyUntilRemoved)
{
    const fs::path dir = scratchDir("excl");
    const fs::path path = dir / "probe.lease";

    ASSERT_EQ(createClaimFile(path), ClaimAttempt::Acquired);
    EXPECT_EQ(createClaimFile(path), ClaimAttempt::Busy);
    fs::remove(path);
    EXPECT_EQ(createClaimFile(path), ClaimAttempt::Acquired);
    fs::remove_all(dir);
}

TEST(ClaimFile, GarbageBodiesAreRejected)
{
    long pid = 0;
    std::string host;
    EXPECT_FALSE(parseClaimBody("", pid, host));
    EXPECT_FALSE(parseClaimBody("pid", pid, host));
    EXPECT_FALSE(parseClaimBody("pid abc host x\n", pid, host));
    EXPECT_FALSE(parseClaimBody("owner 12 host x\n", pid, host));
}

TEST(ClaimFile, DeadPidClaimIsNotLive)
{
    const fs::path dir = scratchDir("dead");
    const fs::path path = dir / "probe.lease";

    // Forge a same-host claim from a pid that cannot be alive.
    {
        std::ofstream out(path);
        out << "pid 999999999 host " << claimHost() << "\n";
    }
    EXPECT_FALSE(claimFileLive(path, 3600));
    fs::remove_all(dir);
}

TEST(ClaimFile, ForeignHostClaimGoesStaleByAge)
{
    const fs::path dir = scratchDir("foreign");
    const fs::path path = dir / "probe.lease";

    // A claim from another host cannot be pid-probed; only the mtime
    // threshold applies. Age 0 ⇒ everything is stale; huge ⇒ live.
    {
        std::ofstream out(path);
        out << "pid 1 host not-this-host-ever\n";
    }
    EXPECT_TRUE(claimFileLive(path, 3600));
    EXPECT_FALSE(claimFileLive(path, 0));

    // refreshClaimFile keeps it fresh without changing the body.
    EXPECT_TRUE(refreshClaimFile(path));
    std::string content;
    {
        std::ifstream in(path);
        std::getline(in, content);
    }
    EXPECT_EQ(content, "pid 1 host not-this-host-ever");
    fs::remove_all(dir);
}

TEST(SweepQueue, ClaimsCostDescendingAndExactlyOnce)
{
    const fs::path dir = scratchDir("order");
    SweepQueue q(dir, cellsAscendingCost(8));

    std::vector<std::size_t> order;
    for (;;) {
        const std::optional<std::size_t> idx = q.claimNext();
        if (!idx)
            break;
        order.push_back(q.cell(*idx).canonical_index);
        q.publish(*idx, "{}\n");
    }
    // Cost == canonical index here, so the handout order is exactly
    // descending canonical index, each cell exactly once.
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], 7 - i);
    EXPECT_TRUE(q.complete());
    EXPECT_EQ(q.stats().claimed, 8u);
    EXPECT_EQ(q.stats().published, 8u);
    fs::remove_all(dir);
}

TEST(SweepQueue, PublishedDocsAreDoneForLateAttachers)
{
    const fs::path dir = scratchDir("attach");
    {
        SweepQueue first(dir, cellsAscendingCost(5));
        while (const std::optional<std::size_t> idx = first.claimNext())
            first.publish(*idx, "{}\n");
        EXPECT_TRUE(first.complete());
    }
    // A second participant attaching afterwards claims nothing: every
    // cell's document already exists.
    SweepQueue second(dir, cellsAscendingCost(5));
    EXPECT_EQ(second.claimNext(), std::nullopt);
    EXPECT_TRUE(second.complete());
    EXPECT_EQ(second.stats().claimed, 0u);
    fs::remove_all(dir);
}

TEST(SweepQueue, FreshDoneCountSeesDocumentsInsideTheThrottleWindow)
{
    // A coordinator whose workers all publish and exit within one
    // rescan window must not read a stale count: the throttled count
    // may lag, the fresh one may not.
    const fs::path dir = scratchDir("fresh");
    const std::vector<QueueCell> cells = cellsAscendingCost(3);
    SweepQueue q(dir, cells);
    const auto scanned = std::chrono::steady_clock::now();
    EXPECT_EQ(q.doneCount(), 0u); // the first scan
    for (const QueueCell &c : cells)
        std::ofstream(SweepQueue::docPath(dir, c.stem)) << "{}\n";
    const std::size_t throttled = q.doneCount();
    if (std::chrono::steady_clock::now() - scanned <
        std::chrono::milliseconds(150)) {
        EXPECT_EQ(throttled, 0u);
    }
    EXPECT_EQ(q.doneCount(/*fresh=*/true), cells.size());
    EXPECT_TRUE(q.complete());
    EXPECT_EQ(q.claimNext(), std::nullopt);
    fs::remove_all(dir);
}

/**
 * Claim exclusivity fuzz, cross-process: two forked children race
 * over the same 32-cell batch; each drops an O_EXCL marker per cell
 * it claims before "simulating" (a short sleep keeps both in flight).
 * With live holders and no expiries, every cell must end up with
 * exactly one claimant marker and one document.
 */
TEST(SweepQueue, TwoProcessesNeverClaimTheSameCell)
{
    const fs::path dir = scratchDir("race");
    constexpr std::size_t kCells = 32;

    const auto child = [&dir]() -> int {
        SweepQueue q(dir, cellsAscendingCost(kCells));
        int duplicates = 0;
        for (;;) {
            const std::optional<std::size_t> idx = q.claimNext();
            if (!idx) {
                if (q.complete())
                    return duplicates;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                continue;
            }
            const std::string &stem = q.cell(*idx).stem;
            if (createClaimFile(dir / (stem + ".claimant")) !=
                ClaimAttempt::Acquired)
                ++duplicates;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            q.publish(*idx, stem + "\n");
        }
    };

    std::vector<pid_t> pids;
    for (int i = 0; i < 2; ++i) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0)
            _exit(child());
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "duplicate claims";
    }
    for (std::size_t i = 0; i < kCells; ++i) {
        const std::string stem = "cell" + std::to_string(i);
        EXPECT_TRUE(fs::exists(dir / (stem + ".claimant"))) << stem;
        // The published document is the claimant's render of the
        // cell — deterministic, so any publisher wrote these bytes.
        std::ifstream in(SweepQueue::docPath(dir, stem));
        std::string content;
        std::getline(in, content);
        EXPECT_EQ(content, stem);
    }
    fs::remove_all(dir);
}

/**
 * Requeue-on-crash: a holder is SIGKILLed mid-cell. Its lease names a
 * dead same-host pid, and a surviving participant must break it,
 * reclaim the cell, and complete the batch — with the requeue visible
 * in its queue stats.
 */
TEST(SweepQueue, SigkilledHoldersCellsAreRequeuedAndCompleted)
{
    const fs::path dir = scratchDir("requeue");
    constexpr std::size_t kCells = 4;

    // The victim claims one cell and then sleeps forever (its lease
    // refresher keeps running until the SIGKILL lands).
    const pid_t victim = fork();
    ASSERT_GE(victim, 0);
    if (victim == 0) {
        SweepQueue q(dir, cellsAscendingCost(kCells));
        (void)q.claimNext();
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(10));
    }
    // Wait until the victim's lease exists, then kill it mid-cell.
    const fs::path held = SweepQueue::leasePath(
        dir, "cell" + std::to_string(kCells - 1));
    for (int spin = 0; spin < 500 && !fs::exists(held); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(fs::exists(held));
    ASSERT_EQ(kill(victim, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(victim, &status, 0), victim);

    // The survivor drains everything, breaking the dead holder's
    // lease: the pid probe sees the reaped victim as dead at once (the
    // lease's age bound is the cross-host fallback, and
    // ClaimFile.ForeignHostClaimGoesStaleByAge covers it).
    SweepQueue survivor(dir, cellsAscendingCost(kCells));
    std::size_t drained = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!survivor.complete()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "batch never completed";
        const std::optional<std::size_t> idx = survivor.claimNext();
        if (!idx) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            continue;
        }
        ++drained;
        survivor.publish(*idx, "{}\n");
    }
    EXPECT_EQ(drained, kCells);
    EXPECT_GE(survivor.stats().requeued, 1u);
    fs::remove_all(dir);
}

/**
 * A --join-style participant attaches while a batch is half drained
 * and claims exactly the cells not yet published.
 */
TEST(SweepQueue, JoinerAttachesMidBatchAndClaimsRemainder)
{
    const fs::path dir = scratchDir("join");
    constexpr std::size_t kCells = 10;

    SweepQueue owner(dir, cellsAscendingCost(kCells));
    for (std::size_t i = 0; i < kCells / 2; ++i) {
        const std::optional<std::size_t> idx = owner.claimNext();
        ASSERT_TRUE(idx.has_value());
        owner.publish(*idx, "{}\n");
    }

    SweepQueue joiner(dir, cellsAscendingCost(kCells));
    std::size_t joined = 0;
    while (const std::optional<std::size_t> idx = joiner.claimNext()) {
        ++joined;
        joiner.publish(*idx, "{}\n");
    }
    EXPECT_EQ(joined, kCells / 2);
    EXPECT_EQ(joiner.stats().claimed, joined);
    EXPECT_TRUE(joiner.complete());
    EXPECT_TRUE(owner.complete());
    fs::remove_all(dir);
}

} // namespace
} // namespace dice
