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
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        if (bound == 0) return 0;
        // Rejection sampling over the largest multiple of `bound`.
        const std::uint64_t limit = bound * (~0ULL / bound);
        std::uint64_t v = next_u64();
        while (v >= limit) v = next_u64();
        return v % bound;
    }

    /// Uniform double in [0, 1): 53 high-quality bits.
    double next_double() noexcept { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

    /// Standard normal via Box-Muller (no cached spare: keeps state trivially
    /// copyable and fork-independent).
    double normal(double mean, double stddev) noexcept;

    bool chance(double probability) noexcept { return next_double() < probability; }

    /// chance() as an integer compare: `(next_u64() >> 11) <
    /// chance_threshold(p)` is exactly `next_double() < p` for every p, NaN
    /// and values outside [0, 1] included: m·2^-53 < p iff m < ⌈p·2^53⌉.
    [[nodiscard]] static constexpr std::uint64_t chance_threshold(double probability) noexcept {
        if (!(probability > 0.0)) return 0;
        if (probability >= 1.0) return std::uint64_t{1} << 53;
        const double scaled = probability * 0x1.0p53;  // exact: a power-of-two scale
        const auto whole = static_cast<std::uint64_t>(scaled);
        return static_cast<double>(whole) < scaled ? whole + 1 : whole;
    }

    /// Derive an independent child stream (for per-device RNGs).
    Rng fork() noexcept;

private:
    std::uint64_t s_[4];
};

}  // namespace ble
