#include <gtest/gtest.h>

#include "rt/validation.h"

namespace {

using namespace ct;

// The full cross-validation sweep is the PR's acceptance gate: every
// machine x style x legal pattern-pair cell must run through BOTH
// backends from one shared TransferProgram and agree within the
// DESIGN.md tolerance. Run it once and inspect the report.
const rt::ValidationReport &
report()
{
    static const rt::ValidationReport r = rt::crossValidate();
    return r;
}

TEST(Validation, CoversEveryLegalCellOnBothMachines)
{
    // 4 styles x 16 pattern pairs x 2 machines minus the cells the
    // builders legitimately reject (dma-direct needs contiguous ends,
    // T3D has no fetch engine). Pin a floor, not the exact count, so
    // adding styles doesn't break the test.
    EXPECT_GE(report().cells.size(), 90u);
    bool t3d = false, paragon = false;
    for (const auto &cell : report().cells) {
        t3d |= cell.machineName == "T3D";
        paragon |= cell.machineName == "Paragon";
        EXPECT_FALSE(cell.formula.empty());
        EXPECT_GT(cell.simMBps, 0.0)
            << cell.machineName << " " << cell.style << " " << cell.x
            << "Q" << cell.y;
    }
    EXPECT_TRUE(t3d);
    EXPECT_TRUE(paragon);
}

TEST(Validation, ModelTracksSimulatorWithinTolerance)
{
    EXPECT_TRUE(report().allPass)
        << formatValidation(report());
    EXPECT_LE(report().worstAbsErrPct, 15.0);
}

TEST(Validation, JsonCarriesPerCellError)
{
    std::string json = rt::validationJson(report());
    EXPECT_NE(json.find("\"worst_abs_error_pct\""), std::string::npos);
    EXPECT_NE(json.find("\"error_pct\""), std::string::npos);
    EXPECT_NE(json.find("\"all_pass\": true"), std::string::npos);
}

TEST(Validation, FarmWidthLeavesTheReportUnchanged)
{
    // The measured tables and the cells both run on the farm; the
    // report is the same bytes at any width.
    rt::ValidationOptions wide;
    wide.threads = 4;
    const rt::ValidationReport parallel = rt::crossValidate(wide);
    EXPECT_EQ(rt::validationJson(parallel), rt::validationJson(report()));
    EXPECT_EQ(formatValidation(parallel), formatValidation(report()));
}

} // namespace
