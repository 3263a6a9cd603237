/**
 * @file
 * Minimal threading utilities for the embarrassingly-parallel parts of
 * the project (the bench suite's simulation sweeps, bulk codec
 * measurement). Tasks must be independent and must not throw: the
 * simulator reports failure through dice_assert/dice_panic, which
 * abort the process.
 */

#ifndef DICE_COMMON_PARALLEL_HPP
#define DICE_COMMON_PARALLEL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dice
{

/** Fixed-size pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Waits for queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_task_;
    std::condition_variable cv_done_;
    std::size_t active_ = 0;
    bool stop_ = false;
};

/**
 * Run fn(0) ... fn(n-1) on up to @p jobs threads and return when all
 * have finished. jobs <= 1 (or n <= 1) executes inline on the calling
 * thread with no pool at all, so a single-job run is bit-identical in
 * behavior to a plain loop. Indices are claimed dynamically, one at a
 * time, so uneven task costs balance across the pool.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace dice

#endif // DICE_COMMON_PARALLEL_HPP
