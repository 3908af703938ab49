// Fixture: rule 9 (single-thread-spawn-point).  tools/ is in scope
// too.
#include <thread>

void
background()
{
    std::jthread t([] {});
}
