// Fixture: clean for rule 9 (single-thread-spawn-point).  Tests start
// threads to probe thread-cleanliness.
#include <thread>

void
probe()
{
    std::thread t([] {});
    t.join();
}
