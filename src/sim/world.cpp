#include "sim/world.hpp"

namespace ble::sim {

namespace {
PathLossModel make_path_loss(const RadioWorldSpec& spec) {
    PathLossModel model(spec.path_loss);
    for (const auto& wall : spec.walls) model.add_wall(wall);
    return model;
}
}  // namespace

RadioWorld::RadioWorld(const RadioWorldSpec& spec, std::uint64_t seed)
    : seed(seed),
      rng(seed),
      medium(scheduler, rng, make_path_loss(spec), CaptureModel(spec.capture), spec.medium) {
    restart(seed);
}

void RadioWorld::restart(std::uint64_t new_seed) {
    seed = new_seed;
    rng = Rng(new_seed);
    scheduler.restart();
    medium.restart(rng.fork());
}

}  // namespace ble::sim
