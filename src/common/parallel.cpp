#include "parallel.hpp"

#include <atomic>

namespace dice
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    cv_task_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_task_.wait(lock,
                          [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                cv_done_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const std::size_t threads =
        std::min<std::size_t>(jobs == 0 ? 1 : jobs, n);
    if (threads <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    const auto drain = [&next, n, &fn] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };

    ThreadPool pool(static_cast<unsigned>(threads));
    for (std::size_t t = 0; t < threads; ++t)
        pool.submit(drain);
    pool.wait();
}

} // namespace dice
