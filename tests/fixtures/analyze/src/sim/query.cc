// Fixture: clean for rule 9 (single-thread-spawn-point).  A static
// query starts no thread.
#include <thread>

unsigned
workers()
{
    return std::thread::hardware_concurrency();
}
