// Fixture: rule 11 (fuzz-corpus).  A harness without a seed corpus.
#include <cstddef>
#include <cstdint>

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    return 0;
}
