/**
 * @file
 * Seeded garbage and round-trip fuzzing of the untrusted spec
 * parsers: sweep::Grid::parse, sim::FaultSpec::tryParse and
 * sim::ChaosSchedule::tryParse. Every input either is rejected with a
 * diagnostic or round-trips; no input may crash a parser.
 *
 * Round trip means: for the fault and chaos specs, the canonical
 * summary() of an accepted spec parses again to the same summary;
 * for grid specs (which have no rendering), a well-formed spec
 * expands to exactly the cells the builder API gives for the same
 * dimension values, and any accepted spec expands to the same cells
 * whatever the order of its clauses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/style_registry.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "sweep/grid.h"
#include "util/rng.h"

namespace {

using namespace ct;
using sweep::CellKind;
using sweep::CellSpec;
using sweep::Grid;
using util::Rng;

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &values)
{
    return values[rng.nextBelow(values.size())];
}

/** A short decimal that prints back identically at 6 digits. */
std::string
randomRate(Rng &rng)
{
    return pick<std::string>(rng, {"0", "1", "0.5", "0.25", "1e-3",
                                   "0.001", "2.5e-05", "0.125"});
}

/**
 * Garbage built from @p valid: character insertions, deletions and
 * replacements drawn from the spec alphabet, duplicated or dropped
 * separators, and the occasional fully random string.
 */
std::string
mutate(Rng &rng, const std::string &valid)
{
    static const std::string alphabet =
        "abcdefgiklmnoprstuwxyz0123456789.=,;:@|-+eE _";
    auto random_char = [&] {
        return alphabet[rng.nextBelow(alphabet.size())];
    };
    if (rng.nextBelow(8) == 0) {
        std::string out;
        for (std::uint64_t n = rng.nextBelow(40); n > 0; --n)
            out += random_char();
        return out;
    }
    std::string out = valid;
    for (std::uint64_t edits = 1 + rng.nextBelow(4); edits > 0;
         --edits) {
        std::size_t at = out.empty() ? 0 : rng.nextBelow(out.size());
        switch (rng.nextBelow(4)) {
          case 0:
            out.insert(out.begin() + static_cast<long>(at),
                       random_char());
            break;
          case 1:
            if (!out.empty())
                out.erase(at, 1);
            break;
          case 2:
            if (!out.empty())
                out[at] = random_char();
            break;
          default:
            // Huge numbers probe integer narrowing.
            out.insert(at, "4294967304");
            break;
        }
    }
    return out;
}

// --- FaultSpec -------------------------------------------------------

std::string
randomFaultSpec(Rng &rng)
{
    std::vector<std::string> fields;
    auto maybe = [&](const std::string &field) {
        if (rng.nextBelow(3) == 0)
            fields.push_back(field);
    };
    maybe("drop=" + randomRate(rng));
    maybe("corrupt=" + randomRate(rng));
    maybe("dup=" + randomRate(rng));
    maybe("delay=" + std::to_string(rng.nextBelow(500)));
    maybe("delay_rate=" + randomRate(rng));
    maybe("engine_stall=" + randomRate(rng));
    maybe("engine_stall_cycles=" + std::to_string(rng.nextBelow(5000)));
    maybe("engine_fail=" + randomRate(rng));
    for (std::uint64_t n = rng.nextBelow(3); n > 0; --n)
        fields.push_back("link_down=" + std::to_string(rng.nextBelow(64)) +
                         "@" + std::to_string(rng.nextBelow(100000)));
    for (std::uint64_t n = rng.nextBelow(2); n > 0; --n)
        fields.push_back("node_down=" + std::to_string(rng.nextBelow(64)));
    maybe("link_fail_rate=" + randomRate(rng));
    maybe("seed=" + std::to_string(rng.nextBelow(1000)));
    rng.shuffle(fields);
    std::string spec;
    for (const std::string &f : fields)
        spec += (spec.empty() ? "" : ",") + f;
    return spec;
}

/** Accepted spec -> canonical summary that is a parse fixed point. */
void
expectFaultRoundTrip(const sim::FaultSpec &spec, const std::string &input)
{
    std::string canonical = spec.summary();
    if (canonical == "none") {
        EXPECT_FALSE(spec.any()) << "input '" << input << "'";
        return;
    }
    std::string error;
    auto again = sim::FaultSpec::tryParse(canonical, &error);
    ASSERT_TRUE(again) << "summary '" << canonical << "' of '" << input
                       << "' does not parse: " << error;
    EXPECT_EQ(again->summary(), canonical) << "input '" << input << "'";
}

class SpecFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(SpecFuzz, FaultSpecWellFormedRoundTrips)
{
    Rng rng(GetParam());
    for (int i = 0; i < 300; ++i) {
        std::string input = randomFaultSpec(rng);
        std::string error;
        auto spec = sim::FaultSpec::tryParse(input, &error);
        ASSERT_TRUE(spec) << "'" << input << "': " << error;
        expectFaultRoundTrip(*spec, input);
    }
}

TEST_P(SpecFuzz, FaultSpecGarbageRejectsLoudlyOrRoundTrips)
{
    Rng rng(GetParam() + 1000);
    for (int i = 0; i < 1000; ++i) {
        std::string input = mutate(rng, randomFaultSpec(rng));
        std::string error;
        auto spec = sim::FaultSpec::tryParse(input, &error);
        if (!spec) {
            EXPECT_FALSE(error.empty()) << "silent reject '" << input
                                        << "'";
            continue;
        }
        expectFaultRoundTrip(*spec, input);
    }
}

// --- ChaosSchedule ---------------------------------------------------

std::string
randomChaosSpec(Rng &rng)
{
    std::vector<std::string> items;
    auto cls = [&] {
        return pick<std::string>(rng, {"drop", "corrupt", "dup"});
    };
    auto target = [&] { return pick<std::string>(rng, {"link", "node"}); };
    for (std::uint64_t n = rng.nextBelow(5); n > 0; --n) {
        std::uint64_t t0 = rng.nextBelow(100000);
        switch (rng.nextBelow(4)) {
          case 0:
            items.push_back("step:" + cls() + ":" + randomRate(rng) + ":" +
                            std::to_string(t0));
            break;
          case 1:
            items.push_back("ramp:" + cls() + ":" + randomRate(rng) + ":" +
                            randomRate(rng) + ":" + std::to_string(t0) +
                            ":" +
                            std::to_string(t0 + 1 + rng.nextBelow(1000)));
            break;
          case 2:
            items.push_back("cascade:" + target() + ":" +
                            std::to_string(1 + rng.nextBelow(4)) + ":" +
                            std::to_string(t0) + ":" +
                            std::to_string(rng.nextBelow(5000)));
            break;
          default: {
            std::uint64_t period = 2 + rng.nextBelow(1000);
            items.push_back("flap:" + target() + ":" +
                            std::to_string(1 + rng.nextBelow(4)) + ":" +
                            std::to_string(t0) + ":" +
                            std::to_string(period) + ":" +
                            std::to_string(1 + rng.nextBelow(period - 1)));
            break;
          }
        }
    }
    if (rng.nextBelow(2))
        items.push_back("seed:" + std::to_string(rng.nextBelow(1000)));
    rng.shuffle(items);
    std::string spec;
    for (const std::string &item : items)
        spec += (spec.empty() ? "" : ";") + item;
    return spec;
}

void
expectChaosRoundTrip(const sim::ChaosSchedule &chaos,
                     const std::string &input)
{
    std::string canonical = chaos.summary();
    if (canonical == "none") {
        EXPECT_FALSE(chaos.any()) << "input '" << input << "'";
        return;
    }
    std::string error;
    auto again = sim::ChaosSchedule::tryParse(canonical, &error);
    ASSERT_TRUE(again) << "summary '" << canonical << "' of '" << input
                       << "' does not parse: " << error;
    EXPECT_EQ(again->summary(), canonical) << "input '" << input << "'";
}

TEST_P(SpecFuzz, ChaosScheduleWellFormedRoundTrips)
{
    Rng rng(GetParam() + 2000);
    for (int i = 0; i < 300; ++i) {
        std::string input = randomChaosSpec(rng);
        std::string error;
        auto chaos = sim::ChaosSchedule::tryParse(input, &error);
        ASSERT_TRUE(chaos) << "'" << input << "': " << error;
        expectChaosRoundTrip(*chaos, input);
    }
}

TEST_P(SpecFuzz, ChaosScheduleGarbageRejectsLoudlyOrRoundTrips)
{
    Rng rng(GetParam() + 3000);
    for (int i = 0; i < 1000; ++i) {
        std::string input = mutate(rng, randomChaosSpec(rng));
        std::string error;
        auto chaos = sim::ChaosSchedule::tryParse(input, &error);
        if (!chaos) {
            EXPECT_FALSE(error.empty()) << "silent reject '" << input
                                        << "'";
            continue;
        }
        expectChaosRoundTrip(*chaos, input);
    }
}

// --- Grid ------------------------------------------------------------

std::vector<std::string>
cellIds(const Grid &grid)
{
    std::vector<std::string> ids;
    for (const CellSpec &cell : grid.cells())
        ids.push_back(cell.id);
    return ids;
}

/** A well-formed dimension-list spec and the same grid built through
 *  the builder API. */
struct GridCase
{
    std::vector<std::string> clauses;
    Grid built;
};

GridCase
randomGridCase(Rng &rng)
{
    GridCase c;
    auto join = [](const std::vector<std::string> &values, char sep) {
        std::string out;
        for (const std::string &v : values)
            out += (out.empty() ? "" : std::string(1, sep)) + v;
        return out;
    };
    bool copy = rng.nextBelow(4) == 0;
    if (copy || rng.nextBelow(2)) {
        c.clauses.push_back(copy ? "kind=copy" : "kind=exchange");
        c.built.kind(copy ? CellKind::Copy : CellKind::Exchange);
    }
    if (rng.nextBelow(2)) {
        std::vector<std::string> names;
        std::vector<core::MachineId> ids;
        if (rng.nextBelow(3)) {
            names.push_back("t3d");
            ids.push_back(core::MachineId::T3d);
        }
        if (ids.empty() || rng.nextBelow(2)) {
            names.push_back("paragon");
            ids.push_back(core::MachineId::Paragon);
        }
        c.clauses.push_back("machine=" + join(names, ','));
        c.built.machines(ids);
    }
    if (!copy && rng.nextBelow(2)) {
        std::vector<std::string> styles = {
            pick<std::string>(rng, {"chained", "buffer-packing"})};
        c.clauses.push_back("style=" + join(styles, ','));
        c.built.styles(styles);
    }
    auto patterns = [&](const char *key, bool x) {
        std::vector<std::string> labels;
        std::vector<core::AccessPattern> values;
        for (std::uint64_t n = 1 + rng.nextBelow(2); n > 0; --n) {
            std::string label =
                pick<std::string>(rng, {"1", "2", "16", "64", "w", "8.2"});
            labels.push_back(label);
            values.push_back(*core::AccessPattern::parse(label));
        }
        c.clauses.push_back(std::string(key) + "=" + join(labels, ','));
        if (x)
            c.built.xs(values);
        else
            c.built.ys(values);
    };
    if (rng.nextBelow(2))
        patterns("x", true);
    if (rng.nextBelow(2))
        patterns("y", false);
    if (rng.nextBelow(2)) {
        std::vector<std::string> text;
        std::vector<std::uint64_t> counts;
        for (std::uint64_t n = 1 + rng.nextBelow(2); n > 0; --n) {
            counts.push_back(1 + rng.nextBelow(1u << 20));
            text.push_back(std::to_string(counts.back()));
        }
        c.clauses.push_back("words=" + join(text, ','));
        c.built.words(counts);
    }
    if (!copy && rng.nextBelow(3) == 0) {
        int nodes = 8 << rng.nextBelow(4);
        c.clauses.push_back("nodes=" + std::to_string(nodes));
        c.built.nodes({nodes});
    }
    if (rng.nextBelow(3) == 0) {
        std::vector<std::string> text = {"none"};
        std::vector<sim::FaultSpec> specs = {sim::FaultSpec{}};
        std::string f = "drop=" + randomRate(rng) +
                        ",seed=" + std::to_string(rng.nextBelow(100));
        text.push_back(f);
        specs.push_back(sim::FaultSpec::parse(f));
        c.clauses.push_back("faults=" + join(text, '|'));
        c.built.faults(specs);
    }
    if (c.clauses.empty()) {
        c.clauses.push_back("kind=exchange");
        c.built.kind(CellKind::Exchange);
    }
    rng.shuffle(c.clauses);
    return c;
}

std::string
joinClauses(const std::vector<std::string> &clauses)
{
    std::string spec;
    for (const std::string &clause : clauses)
        spec += (spec.empty() ? "" : ";") + clause;
    return spec;
}

TEST_P(SpecFuzz, GridWellFormedMatchesBuilder)
{
    Rng rng(GetParam() + 4000);
    for (int i = 0; i < 60; ++i) {
        GridCase c = randomGridCase(rng);
        std::string spec = joinClauses(c.clauses);
        std::string error;
        auto grid = Grid::parse(spec, &error);
        ASSERT_TRUE(grid) << "'" << spec << "': " << error;
        EXPECT_EQ(cellIds(*grid), cellIds(c.built)) << "'" << spec << "'";
    }
}

TEST_P(SpecFuzz, GridGarbageRejectsLoudlyOrExpandsValidCells)
{
    Rng rng(GetParam() + 5000);
    for (int i = 0; i < 400; ++i) {
        std::string input =
            rng.nextBelow(10) == 0
                ? mutate(rng, pick<std::string>(
                                  rng, {"fig4", "faultsweep",
                                        "nodes:8..64"}))
                : mutate(rng, joinClauses(randomGridCase(rng).clauses));
        std::string error;
        auto grid = Grid::parse(input, &error);
        if (!grid) {
            EXPECT_FALSE(error.empty()) << "silent reject '" << input
                                        << "'";
            continue;
        }
        for (const CellSpec &cell : grid->cells()) {
            EXPECT_GT(cell.words, 0u) << cell.id;
            EXPECT_FALSE(cell.x.isFixed()) << cell.id;
            EXPECT_FALSE(cell.y.isFixed()) << cell.id;
            EXPECT_TRUE(cell.nodes == 0 || sim::validScaleNodes(cell.nodes))
                << cell.id;
            if (cell.kind == CellKind::Exchange) {
                EXPECT_NE(core::findStyle(cell.style), nullptr) << cell.id;
            }
        }
        // Clause order never matters to an accepted dimension list.
        if (input.find('=') != std::string::npos) {
            std::vector<std::string> clauses;
            std::size_t begin = 0;
            while (begin <= input.size()) {
                std::size_t end = input.find(';', begin);
                if (end == std::string::npos)
                    end = input.size();
                clauses.push_back(input.substr(begin, end - begin));
                begin = end + 1;
            }
            std::reverse(clauses.begin(), clauses.end());
            auto reversed = Grid::parse(joinClauses(clauses), &error);
            ASSERT_TRUE(reversed) << "'" << input << "' reversed: "
                                  << error;
            EXPECT_EQ(cellIds(*reversed), cellIds(*grid)) << input;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecFuzz,
                         testing::Range<std::uint64_t>(1, 9));

// Narrowing regressions the fuzzing found: an over-wide count must be
// rejected, not wrapped into a different valid value.

TEST(SpecNarrowing, GridRejectsWrappedNodeCount)
{
    std::string error;
    EXPECT_FALSE(Grid::parse("nodes=4294967304", &error));
    EXPECT_NE(error.find("4294967304"), std::string::npos) << error;
}

TEST(SpecNarrowing, GridRejectsSignedWordCount)
{
    std::string error;
    EXPECT_FALSE(Grid::parse("words=-1", &error));
    EXPECT_NE(error.find("-1"), std::string::npos) << error;
}

TEST(SpecNarrowing, FaultSpecRejectsWrappedOutageId)
{
    std::string error;
    EXPECT_FALSE(sim::FaultSpec::tryParse("link_down=4294967304@5", &error));
    EXPECT_NE(error.find("4294967304"), std::string::npos) << error;
    EXPECT_FALSE(sim::FaultSpec::tryParse("node_down=2147483648", &error));
}

TEST(SpecNarrowing, RatesRejectNan)
{
    std::string error;
    EXPECT_FALSE(sim::FaultSpec::tryParse("drop=nan", &error));
    EXPECT_FALSE(sim::ChaosSchedule::tryParse("step:drop:nan:0", &error));
}

TEST(SpecNarrowing, ChaosRejectsWrappedVictimCount)
{
    std::string error;
    EXPECT_FALSE(sim::ChaosSchedule::tryParse("cascade:link:4294967296:0:0",
                                              &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
