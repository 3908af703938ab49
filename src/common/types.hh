/**
 * @file
 * Fundamental scalar types and identifiers shared across the simulator.
 *
 * One simulation tick equals one DRAM bus clock cycle (1.5 ns for
 * DDR3-1333). All latencies and timestamps in the DRAM and controller
 * layers are expressed in ticks; the core model internally advances a
 * faster CPU clock (cpuCyclesPerTick CPU cycles per tick).
 */

#ifndef DSARP_COMMON_TYPES_HH
#define DSARP_COMMON_TYPES_HH

#include <compare>
#include <cstdint>
#include <iosfwd>

namespace dsarp {

/** Simulation time in DRAM bus cycles. */
using Tick = std::uint64_t;

/** A tick value that no real event ever reaches. */
constexpr Tick kTickNever = ~Tick(0);

/**
 * A duration in DRAM bus cycles (a timing constraint such as tRCD or
 * tRFC), as opposed to Tick, which is an absolute instant on the same
 * clock. Construction from a raw integer is explicit and there is no
 * implicit decay back to one, so cycle counts cannot silently mix with
 * nanosecond quantities (see Nanoseconds below); the only blessed
 * ns -> cycles conversion is TimingParams::nsToCycles.
 *
 * Supported arithmetic keeps its units honest:
 *   Cycles +- Cycles -> Cycles        Tick +- Cycles  -> Tick
 *   Cycles * int, Cycles / int        Cycles / Cycles -> plain ratio
 * Comparisons against plain integers are allowed (a count compared to
 * a count), since comparison cannot convert between units.
 */
class Cycles
{
  public:
    constexpr Cycles() = default;
    constexpr explicit Cycles(std::int64_t n) : n_(n) {}

    /** The raw cycle count; the escape hatch for stats and printf. */
    constexpr std::int64_t count() const { return n_; }

    /** True for a non-zero duration (override-style fields use zero
     *  as "unset"). */
    constexpr explicit operator bool() const { return n_ != 0; }

    /**
     * This duration inflated by @p mult and rounded up (SARP's
     * power-integrity factors, Eq. 1-3); the epsilon keeps exact
     * products from rounding one cycle too far.
     */
    Cycles ceilScaled(double mult) const;

    constexpr Cycles &operator+=(Cycles o) { n_ += o.n_; return *this; }
    constexpr Cycles &operator-=(Cycles o) { n_ -= o.n_; return *this; }

    friend constexpr Cycles operator+(Cycles a, Cycles b)
    { return Cycles(a.n_ + b.n_); }
    friend constexpr Cycles operator-(Cycles a, Cycles b)
    { return Cycles(a.n_ - b.n_); }
    friend constexpr Cycles operator-(Cycles a) { return Cycles(-a.n_); }
    friend constexpr Cycles operator*(Cycles a, std::int64_t k)
    { return Cycles(a.n_ * k); }
    friend constexpr Cycles operator*(std::int64_t k, Cycles a)
    { return Cycles(k * a.n_); }
    friend constexpr Cycles operator/(Cycles a, std::int64_t k)
    { return Cycles(a.n_ / k); }
    friend constexpr std::int64_t operator/(Cycles a, Cycles b)
    { return a.n_ / b.n_; }
    friend constexpr Cycles operator%(Cycles a, Cycles b)
    { return Cycles(a.n_ % b.n_); }

    friend constexpr bool operator==(Cycles a, Cycles b)
    { return a.n_ == b.n_; }
    friend constexpr auto operator<=>(Cycles a, Cycles b)
    { return a.n_ <=> b.n_; }
    friend constexpr bool operator==(Cycles a, std::int64_t b)
    { return a.n_ == b; }
    friend constexpr auto operator<=>(Cycles a, std::int64_t b)
    { return a.n_ <=> b; }

    /** Deadline arithmetic: an instant offset by a duration. */
    friend constexpr Tick operator+(Tick t, Cycles c)
    { return t + static_cast<Tick>(c.n_); }
    friend constexpr Tick operator+(Cycles c, Tick t)
    { return t + static_cast<Tick>(c.n_); }
    friend constexpr Tick operator-(Tick t, Cycles c)
    { return t - static_cast<Tick>(c.n_); }
    friend constexpr Tick &operator+=(Tick &t, Cycles c)
    { t += static_cast<Tick>(c.n_); return t; }

    /** Poisoned: a bare int is not an instant, so `Cycles + 2` must
     *  spell its unit (`+ Cycles(2)`) rather than silently promoting
     *  the literal to Tick through the deadline overloads above. */
    friend constexpr Tick operator+(Cycles, int) = delete;
    friend constexpr Tick operator+(int, Cycles) = delete;
    friend constexpr Tick operator-(int, Cycles) = delete;

  private:
    std::int64_t n_ = 0;
};

std::ostream &operator<<(std::ostream &os, Cycles c);

/**
 * A duration in nanoseconds: the unit DRAM data sheets speak
 * (DramSpec's *Ns fields). Deliberately incompatible with Cycles and
 * with raw arithmetic against the clock period -- dividing or
 * multiplying a plain double by tCK is exactly the bug class that
 * understated LPDDR4 refresh energy 2x. Convert through
 * TimingParams::nsToCycles (or nsToCyclesFloor) only.
 */
class Nanoseconds
{
  public:
    constexpr Nanoseconds() = default;
    constexpr explicit Nanoseconds(double ns) : ns_(ns) {}

    /** The raw nanosecond value; for printing, never for conversion. */
    constexpr double ns() const { return ns_; }

    constexpr explicit operator bool() const { return ns_ != 0.0; }

    friend constexpr Nanoseconds operator+(Nanoseconds a, Nanoseconds b)
    { return Nanoseconds(a.ns_ + b.ns_); }
    friend constexpr Nanoseconds operator-(Nanoseconds a, Nanoseconds b)
    { return Nanoseconds(a.ns_ - b.ns_); }
    friend constexpr Nanoseconds operator*(Nanoseconds a, double k)
    { return Nanoseconds(a.ns_ * k); }
    friend constexpr Nanoseconds operator*(double k, Nanoseconds a)
    { return Nanoseconds(k * a.ns_); }
    friend constexpr Nanoseconds operator/(Nanoseconds a, double k)
    { return Nanoseconds(a.ns_ / k); }
    /** Ratio of two durations is a plain number (e.g. tRFCsb/tRFCab). */
    friend constexpr double operator/(Nanoseconds a, Nanoseconds b)
    { return a.ns_ / b.ns_; }

    friend constexpr bool operator==(Nanoseconds a, Nanoseconds b)
    { return a.ns_ == b.ns_; }
    friend constexpr auto operator<=>(Nanoseconds a, Nanoseconds b)
    { return a.ns_ <=> b.ns_; }

  private:
    double ns_ = 0.0;
};

std::ostream &operator<<(std::ostream &os, Nanoseconds ns);

/** Physical byte address. */
using Addr = std::uint64_t;

/** Identifier types; plain ints keep arithmetic painless. */
using CoreId = int;
using ChannelId = int;
using RankId = int;
using BankId = int;
using SubarrayId = int;
using RowId = int;

/** Marker for "no row open" / "no subarray". */
constexpr int kNone = -1;

/** The low @p n bits set (n <= 64): ranges of the 64-bit bank and
 *  queue-position masks the channel and the controller keep. */
constexpr std::uint64_t
lowBits(int n)
{
    return n >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << n) - 1;
}

} // namespace dsarp

#endif // DSARP_COMMON_TYPES_HH
