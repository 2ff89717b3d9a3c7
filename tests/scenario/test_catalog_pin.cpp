// Pins the bytes of every built-in scenario's summary across commits. The
// runner tests compare a build with itself and the goldens print rounded
// numbers, so a change in the last bit of one simulated runtime passes
// both; a SHA-256 over the canonical summary does not.
//
// Regenerating: a deliberate behaviour change updates the table below with
// the actual hashes this test prints on failure. The same hash comes from
// the CLI: `cloudrepro run <name> --no-cache | head -c -1 | sha256sum`
// (`head` drops the newline the CLI appends to the summary).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/sha256.h"

namespace cloudrepro::scenario {
namespace {

struct PinnedSummary {
  const char* scenario;
  const char* sha256;
};

// Serial, store-less runs at each scenario's registry seed.
constexpr PinnedSummary kPinned[] = {
    {"fig13-confirm",
     "bcf58dca431a214cf4ccc8643f6017fb100c64d5c8f1b057ca2c962a9fae5dc4"},
    {"fig15-terasort-budget",
     "9d4126e502e4eda8e03152aea393170526a03f5e7ae124522b98ef4bf018b828"},
    {"fig16-hibench-budget",
     "b7e52f9e086ec27ca456d1ea86570d6e966c1f30487258a2e9f04502ce3d3abf"},
    {"fig17-tpcds-budget",
     "7c6debf1073c0f2325bc745a70b6d08f3b8b71fd25fdbb8c17febdb01595800f"},
    {"fig18-straggler",
     "23ddbebe1550c648fedf56bdd9a8bcf522fde85ccab20b7f6c5ac599dee858ce"},
    {"fig19-budget-depletion",
     "3a885e7fbd5afab6af38f4fb9afce0e9e241db5d402efe879feb990a1e4a4354"},
    {"table4-setup",
     "9e470c247f66e21103c648b362077ac7c81568fac51da29c77d18c4bd2a57787"},
    {"tpch-budget",
     "860f9cb3d6c089dd970983c2fdd0552ec6612f36476dabd011727db7896da36e"},
    {"fault-mitigation",
     "6cd17044b106f18f3caccc130c9b88c34826a3c8fdfb256a2035c8d61a248639"},
    {"ci-smoke",
     "84726395c5152210eadc6497b5554b65275eaefb8eaad9f303c54096fb3e9f01"},
    {"ci-adaptive",
     "eee3163db660a590d243612da65fde32cc3bde928ff4cb0276656e43474bcedc"},
};

void PrintTo(const PinnedSummary& pin, std::ostream* os) { *os << pin.scenario; }

class CatalogSummaryPin : public ::testing::TestWithParam<PinnedSummary> {};

TEST_P(CatalogSummaryPin, SummaryBytesMatchRecordedHash) {
  const PinnedSummary& pin = GetParam();
  const ScenarioSpec& spec = ScenarioRegistry::builtin().at(pin.scenario);
  RunOptions options;
  options.threads = 1;
  const ScenarioRunResult result = run_scenario(spec, options);
  ASSERT_TRUE(result.complete);
  const std::string actual = sha256_hex(result.summary);
  EXPECT_EQ(actual, pin.sha256)
      << pin.scenario << ": summary bytes changed; actual sha256 " << actual
      << ". If the change is intentional, put this hash in kPinned "
         "(tests/scenario/test_catalog_pin.cpp).";
}

TEST(CatalogSummaryPinTable, CoversEveryBuiltinScenario) {
  std::vector<std::string> pinned;
  for (const PinnedSummary& pin : kPinned) pinned.emplace_back(pin.scenario);
  std::vector<std::string> catalog = ScenarioRegistry::builtin().names();
  std::sort(pinned.begin(), pinned.end());
  std::sort(catalog.begin(), catalog.end());
  EXPECT_EQ(pinned, catalog);
}

INSTANTIATE_TEST_SUITE_P(
    Builtin, CatalogSummaryPin, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedSummary>& info) {
      std::string name = info.param.scenario;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace cloudrepro::scenario
