#include "sim/path_loss.hpp"

#include <algorithm>
#include <cmath>

namespace ble::sim {

double distance_m(Position a, Position b) noexcept {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::sqrt(dx * dx + dy * dy);
}

namespace {
double cross(Position o, Position a, Position b) noexcept {
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

bool on_segment(Position p, Position q, Position r) noexcept {
    return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
           std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
}

int orientation(Position p, Position q, Position r) noexcept {
    const double v = cross(p, q, r);
    if (v > 1e-12) return 1;
    if (v < -1e-12) return 2;
    return 0;
}
}  // namespace

bool segments_intersect(Position p1, Position p2, Position p3, Position p4) noexcept {
    const int o1 = orientation(p1, p2, p3);
    const int o2 = orientation(p1, p2, p4);
    const int o3 = orientation(p3, p4, p1);
    const int o4 = orientation(p3, p4, p2);
    if (o1 != o2 && o3 != o4) return true;
    if (o1 == 0 && on_segment(p1, p3, p2)) return true;
    if (o2 == 0 && on_segment(p1, p4, p2)) return true;
    if (o3 == 0 && on_segment(p3, p1, p4)) return true;
    if (o4 == 0 && on_segment(p3, p2, p4)) return true;
    return false;
}

double PathLossModel::mean_loss_db(Position tx, Position rx) const noexcept {
    const double d = std::max(distance_m(tx, rx), 0.1);
    double loss = params_.ref_loss_db + 10.0 * params_.exponent * std::log10(d);
    for (const auto& wall : walls_) {
        if (segments_intersect(tx, rx, wall.a, wall.b)) loss += wall.loss_db;
    }
    return loss;
}

}  // namespace ble::sim
