// lint-fixture-path: src/core/spec_preview.cpp
//
// An upward include that carries its excuse in a comment: core (rank 6)
// reading a world (rank 7) header until a spec extraction lands.  The
// linter has no suppressions, so the comment changes nothing and L1 flags
// the include like any other upward edge.
// transitional edge, tracked for removal in the spec extraction
#include "world/world.hpp"

namespace ble::core {

struct SpecPreview {
    int hop_interval = 0;
};

}  // namespace ble::core
