// lint-fixture-path: src/world/good_layering.cpp
//
// Compliant layering: the world layer (rank 7) depending down on common
// (rank 0), obs (rank 1) and core (rank 6).  Same-rank includes are fine
// too.  Fully clean.
#include <string>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "ids/detector.hpp"
#include "obs/metrics.hpp"
#include "world/result_sink.hpp"

namespace injectable::world {

struct GoodLayering {
    std::string note = "dependencies point down the layer order";
};

}  // namespace injectable::world
