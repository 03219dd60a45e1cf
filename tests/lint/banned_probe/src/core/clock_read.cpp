// The lint.banned_names probe plants a host clock read in src/: a trial
// that reads it depends on when it ran, not only on (config, seed).
#include <chrono>

namespace ble::core {

template <typename Stats>
double jittered_deadline_us(const Stats& stats) {
    // steady_clock in a comment, and a member named time(), are no reads.
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return stats.time(0) + static_cast<double>(now.count() % 1000);
}

}  // namespace ble::core
