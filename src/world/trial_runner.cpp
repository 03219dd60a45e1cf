#include "world/trial_runner.hpp"

#include <cstdlib>

namespace injectable::world {

int resolve_jobs(int requested) noexcept {
    if (requested > 0) return requested;
    if (const char* env = std::getenv("BENCH_JOBS")) {
        const int parsed = std::atoi(env);
        if (parsed > 0) return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace injectable::world
