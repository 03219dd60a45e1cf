// Deterministic random number generation.
//
// Every stochastic element of the simulation (clock drift, capture phase,
// payload noise) draws from an explicitly seeded Xoshiro256** stream, so any
// experiment is reproducible from its seed.  std::mt19937 is avoided because
// its state size and seeding rules make cross-platform reproducibility and
// cheap per-device forking awkward.
#pragma once

#include <bit>
#include <cstdint>

namespace ble {

class Rng {
public:
    /// Seeds the four 64-bit words from the given seed via SplitMix64, per the
    /// xoshiro authors' recommendation (never yields the all-zero state).
    explicit Rng(std::uint64_t seed) noexcept;

    /// Uniform 64-bit value.  Inline, like next_double() and chance(): the
    /// capture lottery draws tens of millions of values per traced run.
    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /// Uniform in [0, bound) without modulo bias (rejection sampling).
    std::uint64_t next_below(std::uint64_t bound) noexcept;

    /// Uniform double in [0, 1): 53 high-quality bits.
    double next_double() noexcept { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

    /// Standard normal via Box-Muller (no cached spare: keeps state trivially
    /// copyable and fork-independent).
    double normal(double mean, double stddev) noexcept;

    bool chance(double probability) noexcept { return next_double() < probability; }

    /// Derive an independent child stream (for per-device RNGs).
    Rng fork() noexcept;

private:
    std::uint64_t s_[4];
};

}  // namespace ble
