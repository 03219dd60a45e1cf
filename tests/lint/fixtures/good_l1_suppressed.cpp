// lint-fixture-path: src/core/good_layering_suppressed.cpp
//
// An audited upward include: core (rank 6) reading a world (rank 7)
// header.  The allow(L1) carries the migration argument, so the finding
// surfaces suppressed and nothing unsuppressed remains.
// injectable-lint: allow(L1) -- fixture: transitional edge, tracked for removal in the spec extraction
#include "world/world.hpp"

namespace ble::core {

struct SpecPreview {
    int hop_interval = 0;
};

}  // namespace ble::core
