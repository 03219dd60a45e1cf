// TrialRunner: deterministic parallel execution of independent trials.
//
// The paper's Fig. 9 campaigns (25 runs x many configurations x up to 1500
// attempts) are embarrassingly parallel Monte-Carlo work: every trial owns a
// private Scheduler and Rng and is a pure function of (config, seed).  The
// runner maps trial index -> result on a small worker pool and stores results
// *by index*, so the output vector is bit-identical to a serial run
// regardless of thread count or completion order — the seed-per-trial,
// merge-by-key pattern measurement frameworks use to make large sweeps
// tractable.
//
// Worker count: explicit constructor argument > BENCH_JOBS environment
// variable > std::thread::hardware_concurrency().  With one worker (or one
// trial) everything runs inline on the calling thread.
#pragma once

#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace injectable::world {

/// Resolves a worker count: `requested` > 0 wins, else BENCH_JOBS, else the
/// hardware concurrency (never less than 1).
[[nodiscard]] int resolve_jobs(int requested = 0) noexcept;

class TrialRunner {
public:
    /// jobs == 0 resolves via BENCH_JOBS / hardware concurrency.
    explicit TrialRunner(int jobs = 0) : jobs_(resolve_jobs(jobs)) {}

    [[nodiscard]] int jobs() const noexcept { return jobs_; }

    /// Runs fn(0) .. fn(count - 1), each exactly once, and returns the
    /// results ordered by index.  fn must be safe to call concurrently from
    /// multiple threads; the first exception thrown aborts remaining trials
    /// and is rethrown on the calling thread after all workers join.
    template <typename Fn>
    auto map(int count, Fn&& fn) -> std::vector<decltype(fn(0))> {
        return map_with(count, [] { return 0; }, [&fn](int i, int&) { return fn(i); });
    }

    /// map() with per-worker state: each worker calls make_state() once and
    /// runs its trials as fn(i, state), so buffers the state owns keep their
    /// storage from one trial to the next.  What a trial computes must not
    /// depend on which trials ran before it on the same state.  Every state
    /// is destroyed before map_with() returns.
    template <typename MakeState, typename Fn>
    auto map_with(int count, MakeState&& make_state, Fn&& fn)
        -> std::vector<decltype(fn(0, std::declval<decltype(make_state())&>()))> {
        using Result = decltype(fn(0, std::declval<decltype(make_state())&>()));
        if (count <= 0) return {};
        std::vector<Result> results(static_cast<std::size_t>(count));
        const int workers = jobs_ < count ? jobs_ : count;
        if (workers <= 1) {
            auto state = make_state();
            for (int i = 0; i < count; ++i) results[static_cast<std::size_t>(i)] = fn(i, state);
            return results;
        }

        std::atomic<int> next{0};
        std::atomic<bool> abort{false};
        std::exception_ptr error;
        std::mutex error_mutex;
        auto worker = [&]() {
            std::optional<decltype(make_state())> state;
            for (;;) {
                const int i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count || abort.load(std::memory_order_relaxed)) return;
                try {
                    if (!state) state.emplace(make_state());
                    results[static_cast<std::size_t>(i)] = fn(i, *state);
                } catch (...) {
                    const std::lock_guard lock(error_mutex);
                    if (!error) error = std::current_exception();
                    abort.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t) threads.emplace_back(worker);
        for (auto& thread : threads) thread.join();
        if (error) std::rethrow_exception(error);
        return results;
    }

private:
    int jobs_;
};

}  // namespace injectable::world
