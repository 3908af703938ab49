#include "sim/parallel.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace dsarp {

void
parallelFor(int jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs > static_cast<int>(n))
        jobs = static_cast<int>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

SweepRunner::SweepRunner(Runner &runner, int jobs)
    : runner_(&runner), jobs_(jobs < 1 ? 1 : jobs)
{
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint> &points)
{
    std::vector<RunResult> out(points.size());
    parallelFor(jobs_, points.size(), [&](std::size_t i) {
        const SweepPoint &p = points[i];
        out[i] = p.cfg.traffic.enabled() ? runner_->runTraffic(p.cfg)
                                         : runner_->run(p.cfg, p.workload);
    });
    return out;
}

std::uint64_t
SweepRunner::pointSeed(std::uint64_t base, std::size_t index)
{
    // splitmix64 finalizer over (base, index): well distributed and a
    // pure function of the point's identity.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL *
        (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace dsarp
