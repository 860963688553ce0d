#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"
#include "sim/report.h"
#include "util/crc32c.h"

namespace {

using namespace ct;
using namespace ct::sim;
using P = core::AccessPattern;

TEST(Report, FreshMachineIsAllZero)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto r = collectReport(m);
    EXPECT_EQ(r.nodes, 2);
    EXPECT_EQ(r.loadHits + r.loadMisses, 0u);
    EXPECT_EQ(r.networkPackets, 0u);
    EXPECT_EQ(r.loadHitRate(), 0.0);
    EXPECT_EQ(r.wireOverhead(), 0.0);
}

TEST(Report, CountersAccumulateDuringARun)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::strided(16),
                               4096);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);

    auto r = collectReport(m);
    EXPECT_GT(r.loadHits + r.loadMisses, 0u);
    EXPECT_GT(r.dramReads, 0u);
    EXPECT_GT(r.depositPackets, 0u);
    EXPECT_GT(r.networkPackets, 0u);
    EXPECT_GT(r.payloadBytes, 0u);
    // adp framing costs roughly 2x wire bytes per payload byte.
    EXPECT_GT(r.wireOverhead(), 1.5);
    EXPECT_GT(r.rowHitRate(), 0.0);
    EXPECT_LT(r.rowHitRate(), 1.0);
}

TEST(Report, FormatMentionsEverySection)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto text = formatReport(collectReport(m));
    for (const char *section :
         {"cache:", "dram:", "wbq:", "deposit:", "network:"})
        EXPECT_NE(text.find(section), std::string::npos) << section;
}

TEST(Report, CsvColumnsMatchHeader)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto r = collectReport(m);
    auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count_commas(toCsv(r)), count_commas(csvHeader()));
}

TEST(Report, EventCoreCountersSurfaced)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::contiguous(),
                               1 << 15);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);
    auto r = collectReport(m);
    EXPECT_FALSE(r.truncatedRun);
    EXPECT_GT(r.peakPendingEvents, 0u);
    // Credit-based flow control bounds in-flight work: the peak
    // pending-event count must be O(1) in the transfer size, not
    // O(words). 256 is far above the credit window but far below
    // the 512 chunks this transfer pushes through the machine.
    EXPECT_LT(r.peakPendingEvents, 256u);
}

TEST(Report, TruncatedRunIsLoud)
{
    Machine m(t3dConfig({2, 1, 1}));
    std::function<void()> forever = [&]() {
        m.events().scheduleAfter(1, forever);
    };
    m.events().schedule(0, forever);
    m.events().run(10);
    auto r = collectReport(m);
    EXPECT_TRUE(r.truncatedRun);
    auto text = formatReport(r);
    EXPECT_NE(text.find("TRUNCATED RUN"), std::string::npos);
}

TEST(Report, DepositWordsMatchPayload)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::contiguous(),
                               2048);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);
    auto r = collectReport(m);
    EXPECT_EQ(r.depositWords * 8, r.payloadBytes);
}

/**
 * Everything one pairwise exchange commits -- layer, makespan, rates,
 * delivery check, event totals, queue peak, wire bytes and the whole
 * metrics registry as JSON -- folded into one CRC32C. The golden
 * values below pin the serial event loop: any change to event order,
 * timing or counters moves them. The workload seed only picks the
 * payload values, which the fingerprint leaves out, so every seed of
 * a case must land on the same value.
 */
std::uint32_t
runFingerprint(sim::MachineConfig cfg,
               const core::TransferProgram &program, std::uint64_t words,
               std::uint64_t seed)
{
    Machine m(cfg);
    auto op = rt::pairExchange(m, program.x, program.y, words, seed);
    rt::seedSources(m, op);
    auto layer = rt::lowerProgram(program);
    auto result = layer->run(m, op);
    std::uint64_t bad = rt::verifyDelivery(m, op);
    collectReport(m);

    std::ostringstream os;
    os << "layer " << layer->name() << '\n'
       << "makespan " << result.makespan << '\n'
       << "perNodeMBps " << result.perNodeMBps(m) << '\n'
       << "totalMBps " << result.totalMBps(m) << '\n'
       << "corrupt " << bad << '\n'
       << "events " << m.events().eventsExecuted() << '\n'
       << "peakPending " << m.events().peakPending() << '\n'
       << "wireBytes " << m.network().stats().wireBytes << '\n';
    m.metrics().writeJson(os);
    std::string text = os.str();
    return util::crc32c(text.data(), text.size());
}

struct GoldenCase
{
    const char *name;
    core::MachineId machine;
    core::Style style;
    std::uint64_t words;
    std::uint32_t crc;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

const GoldenCase kGoldenCases[] = {
    {"t3d_chained", core::MachineId::T3d, core::Style::Chained, 600,
     0x4c388e02u},
    {"t3d_packing", core::MachineId::T3d, core::Style::BufferPacking,
     600, 0x299978e6u},
    {"paragon_chained", core::MachineId::Paragon, core::Style::Chained,
     600, 0x4c6d2864u},
    {"paragon_packing", core::MachineId::Paragon,
     core::Style::BufferPacking, 600, 0x46a7c4b7u},
    {"paragon_pvm", core::MachineId::Paragon, core::Style::Pvm, 400,
     0x1c72d252u},
};

/** One serial run per (style case, workload seed). */
class GoldenSerial
    : public ::testing::TestWithParam<
          std::tuple<GoldenCase, std::uint64_t>>
{
};

TEST_P(GoldenSerial, Fingerprint)
{
    const GoldenCase &c = std::get<0>(GetParam());
    const std::uint64_t seed = std::get<1>(GetParam());
    auto cfg = c.machine == core::MachineId::T3d ? t3dConfig({4, 2, 1})
                                                 : paragonConfig({4, 2});
    auto program = core::buildProgram(c.machine, c.style, P::strided(4),
                                      P::contiguous());
    ASSERT_TRUE(program.has_value()) << c.name;
    EXPECT_EQ(runFingerprint(cfg, *program, c.words, seed), c.crc)
        << c.name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Styles, GoldenSerial,
    ::testing::Combine(::testing::ValuesIn(kGoldenCases),
                       ::testing::Values(1ull, 7ull, 1995ull)),
    [](const ::testing::TestParamInfo<GoldenSerial::ParamType> &info) {
        return std::string(std::get<0>(info.param).name) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

TEST(Report, GoldenReliableFingerprint)
{
    auto program = core::buildProgram(
        core::MachineId::T3d, core::Style::Chained, P::contiguous(),
        P::contiguous());
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(runFingerprint(t3dConfig({2, 2, 1}),
                             core::withReliability(*program), 400, 3),
              0x6d6e08c5u);
}

/** One faulted SimBackend run per workload seed. */
class GoldenFaultedBackend
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GoldenFaultedBackend, Run)
{
    const std::uint64_t seed = GetParam();
    auto cfg = paragonConfig({2, 2});
    cfg.faults.drop = 0.01;
    cfg.faults.seed = 99;
    auto program = core::buildProgram(
        core::MachineId::Paragon, core::Style::Chained,
        P::contiguous(), P::contiguous());
    ASSERT_TRUE(program.has_value());
    rt::SimBackend backend(cfg);
    rt::SimRun r =
        backend.exchange(core::withReliability(*program), 300, seed);
    std::ostringstream os;
    os << r.result.makespan << ' ' << r.perNodeMBps << ' '
       << r.totalMBps << ' ' << r.corruptWords << ' '
       << r.eventsExecuted;
    std::string text = os.str();
    EXPECT_EQ(util::crc32c(text.data(), text.size()), 0x1b93981fu)
        << "seed " << seed << ": " << text;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenFaultedBackend,
    ::testing::Values(5ull, 11ull, 23ull),
    [](const ::testing::TestParamInfo<std::uint64_t> &info) {
        return "seed" + std::to_string(info.param);
    });

} // namespace
