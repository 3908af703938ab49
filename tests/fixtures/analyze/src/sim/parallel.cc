// Fixture: clean for rule 9 (single-thread-spawn-point).  The audited
// spawn point starts threads.
#include <thread>

void
pool()
{
    std::thread t([] {});
    t.join();
}
