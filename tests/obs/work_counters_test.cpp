// Work counters (src/obs/work_counters.hpp): the thread-local install
// contract, and the export names and values perfbench and recorded
// campaigns read.
#include "obs/work_counters.hpp"

#include <gtest/gtest.h>

namespace ble::obs::work {
namespace {

MetricsSnapshot exported(const Counters& counters) {
    MetricsRegistry registry;
    counters.export_metrics(registry);
    return registry.snapshot();
}

TEST(WorkCounters, NoInstallCountsNothing) {
    ASSERT_EQ(detail::t_current, nullptr);
    count(Site::kMediumDeliver);  // must not crash, must record nothing
    count_dispatch(3);

    Counters counters;
    const Install install(&counters);
    EXPECT_TRUE(exported(counters).empty());
}

TEST(WorkCounters, InstallRestoresPreviousTable) {
    Counters outer;
    const Install outer_install(&outer);
    {
        Counters inner;
        const Install inner_install(&inner);
        count(Site::kCsa1Hop);
        EXPECT_EQ(exported(inner).counters.at("prof.span.link.csa1.hop.count"), 1u);
        {
            const Install none(nullptr);
            count(Site::kCsa1Hop);
        }
        EXPECT_EQ(exported(inner).counters.at("prof.span.link.csa1.hop.count"), 1u);
    }
    EXPECT_EQ(detail::t_current, &outer);
    EXPECT_TRUE(exported(outer).empty());
}

TEST(WorkCounters, ExportsProfNamesAndSkipsZeroCounts) {
    Counters counters;
    const Install install(&counters);
    count_dispatch(1);
    count_dispatch(0);
    count(Site::kMediumDeliver);
    count(Site::kMediumDeliver);
    count(Site::kMediumDeliver);
    count(Site::kCsa2Hop);
    count(Site::kConnProcessFrame);

    const MetricsSnapshot snap = exported(counters);
    EXPECT_EQ(snap.counters.at("prof.span.sim.dispatch.count"), 2u);
    EXPECT_EQ(snap.counters.at("prof.span.medium.deliver.count"), 3u);
    EXPECT_EQ(snap.counters.at("prof.span.link.csa2.hop.count"), 1u);
    EXPECT_EQ(snap.counters.at("prof.span.link.conn.process_frame.count"), 1u);
    // A site that never ran exports no key.
    EXPECT_EQ(snap.counters.count("prof.span.link.csa1.hop.count"), 0u);
    EXPECT_EQ(snap.counters.size(), 4u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_TRUE(snap.histograms.empty());
}

TEST(WorkCounters, QueueDepthGaugeTracksLastMinMax) {
    Counters counters;
    const Install install(&counters);
    count_dispatch(5);
    count_dispatch(2);
    count_dispatch(9);
    const GaugeSnapshot g = exported(counters).gauges.at("prof.gauge.sim.sched.queue_depth");
    EXPECT_EQ(g.samples, 3u);
    EXPECT_EQ(g.last, 9);
    EXPECT_EQ(g.min, 2);
    EXPECT_EQ(g.max, 9);
}

}  // namespace
}  // namespace ble::obs::work
