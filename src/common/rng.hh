/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload generation, DARP's
 * random idle-bank selection) flows through Rng so that a run is fully
 * reproducible from its seeds on any platform. The generator is
 * SplitMix64-seeded xoshiro256**, which is tiny, fast, and has no global
 * state.
 */

#ifndef DSARP_COMMON_RNG_HH
#define DSARP_COMMON_RNG_HH

#include <cstdint>

namespace dsarp {

/** SplitMix64's finaliser: a bijection in which every input bit
 *  reaches every output bit. Also folds digests (command streams). */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        // SplitMix64 expansion of the seed into the xoshiro state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        ++drawCount_;
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift range reduction; bias is negligible for
        // simulator-sized bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Advance the stream by @p n draws without using them. The
     * event-driven engine replays the draws a skipped tick would have
     * made (every consumer above costs exactly one next()), keeping
     * the stream bit-identical to the cycle-by-cycle loop.
     */
    void
    discard(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            next();
    }

    /**
     * Draws made since construction. The event engine snapshots this
     * around a component's tick to learn how many draws one inert tick
     * costs, then discard()s that many per skipped tick.
     */
    std::uint64_t draws() const { return drawCount_; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    std::uint64_t drawCount_ = 0;
};

} // namespace dsarp

#endif // DSARP_COMMON_RNG_HH
