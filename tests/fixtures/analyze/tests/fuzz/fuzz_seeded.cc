// Fixture: clean for rule 11 (fuzz-corpus).  A harness whose corpus
// holds a seed.
#include <cstddef>
#include <cstdint>

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    return 0;
}
