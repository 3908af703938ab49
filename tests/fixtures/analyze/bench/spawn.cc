// Fixture: rule 9 (single-thread-spawn-point).  A raw thread and an
// async launch outside src/sim/parallel.*.
#include <future>
#include <thread>

void
spawn()
{
    std::thread t([] {});
    t.join();
    auto f = std::async([] { return 1; });
}
