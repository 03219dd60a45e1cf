// The lint.banned_names probe plants an environment read in src/, outside
// the result-sink edge wiring: a setting no caller can see or pass.
#include <cstdlib>

namespace ble::obs {

bool verbose_enabled() { return std::getenv("INJECTABLE_VERBOSE") != nullptr; }

}  // namespace ble::obs
