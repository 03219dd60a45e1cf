// RadioWorld: the RF substrate every fixture, bench and example shares — one
// discrete-event scheduler, one seeded RNG tree, and one radio medium, all
// built from a declarative spec instead of hand-wired per call site.
//
// Construction order (and therefore RNG fork order) is part of the contract:
// the medium forks the root stream first, then callers fork per-device
// streams in the order they create devices.  Keeping that order stable is
// what makes a world bit-reproducible from its seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/capture.hpp"
#include "sim/medium.hpp"
#include "sim/path_loss.hpp"
#include "sim/scheduler.hpp"

namespace ble::sim {

/// Declarative description of the RF environment.
struct RadioWorldSpec {
    PathLossParams path_loss{};
    std::vector<Wall> walls;
    CaptureParams capture{};
    MediumParams medium{};
};

struct RadioWorld {
    explicit RadioWorld(const RadioWorldSpec& spec, std::uint64_t seed);
    virtual ~RadioWorld() = default;

    RadioWorld(const RadioWorld&) = delete;
    RadioWorld& operator=(const RadioWorld&) = delete;

    /// Back to the state RadioWorld(spec, seed) constructs: the root stream
    /// reseeded, the scheduler and the medium restarted, the medium's stream
    /// forked first.  The constructor runs this too.  Devices built on the
    /// medium must restart next, in the order they were built.
    void restart(std::uint64_t new_seed);

    void run_for(Duration d) { scheduler.run_until(scheduler.now() + d); }

    /// Runs the scheduler until `pred()` or the budget expires; returns the
    /// final predicate value.
    template <typename Pred>
    bool run_until(Duration budget, Pred&& pred) {
        const TimePoint deadline = scheduler.now() + budget;
        while (scheduler.now() < deadline && !pred()) {
            if (!scheduler.run_one()) break;
        }
        return pred();
    }

    /// The per-world observation stream (owned by the medium: one bus per
    /// world, reachable from every layer that can reach the radio).
    [[nodiscard]] ble::obs::EventBus& bus() noexcept { return medium.bus(); }

    std::uint64_t seed = 0;  ///< the seed this world was built from
    Rng rng;  ///< Root stream; fork() per-device streams from it.
    Scheduler scheduler;
    RadioMedium medium;
};

}  // namespace ble::sim
