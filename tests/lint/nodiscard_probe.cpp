// Compile-only probe for the lint.nodiscard_handles ctest: a statement that
// drops the EventId schedule_after() returns, the only way to cancel the
// event.  The top-level -Werror=unused-result must reject it, so no build
// schedules an event nobody can cancel without a (void) cast saying so.
#include "sim/scheduler.hpp"

void probe(ble::sim::Scheduler& scheduler) {
    scheduler.schedule_after(10, [] {});
}
