// Radio propagation: log-distance path loss + wall attenuation + shadowing.
//
// Substitutes for the paper's physical testbed (Fig. 8).  The attack outcome
// under collision is driven by the signal-to-interference ratio at the
// victim's antenna; a log-distance model with per-frame log-normal fading is
// the standard indoor abstraction and reproduces both the distance trend and
// the "every connection is eventually injectable" observation (channel
// hopping re-rolls the fade on every attempt).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace ble::sim {

struct Position {
    double x = 0.0;
    double y = 0.0;
};

double distance_m(Position a, Position b) noexcept;

/// An attenuating wall segment between two points (metres).
struct Wall {
    Position a;
    Position b;
    double loss_db = 6.0;
};

/// True if segment [p1,p2] crosses segment [p3,p4] (proper or touching).
bool segments_intersect(Position p1, Position p2, Position p3, Position p4) noexcept;

struct PathLossParams {
    /// Free-space-ish reference loss at 1 m for 2.4 GHz.
    double ref_loss_db = 40.0;
    /// Indoor path-loss exponent (2.0 free space, ~2.2 lightly cluttered).
    double exponent = 2.2;
    /// Log-normal shadowing / small-scale fading sigma, drawn per frame.
    /// Channel hopping decorrelates successive frames, so a fresh draw per
    /// transmission-receiver pair is the right granularity.
    double fading_sigma_db = 6.0;
};

class PathLossModel {
public:
    explicit PathLossModel(PathLossParams params = {}) : params_(params) {}

    void add_wall(Wall wall) { walls_.push_back(wall); }
    [[nodiscard]] const std::vector<Wall>& walls() const noexcept { return walls_; }

    /// Deterministic mean loss (path + every wall crossed), in dB.
    [[nodiscard]] double mean_loss_db(Position tx, Position rx) const noexcept;

    /// One fresh fading draw, in dB; a frame's loss is the mean plus this.
    [[nodiscard]] double fading_db(Rng& rng) const noexcept {
        return rng.normal(0.0, params_.fading_sigma_db);
    }

    [[nodiscard]] const PathLossParams& params() const noexcept { return params_; }

private:
    PathLossParams params_;
    std::vector<Wall> walls_;
};

}  // namespace ble::sim
