// Tests for the dacsched-analyzer rule engine: one seeded violation per rule
// from the fixture files, exact file/line/rule-id assertions, suppression
// accounting, the baseline comparator, CLI exit codes, and — the gate that
// matters — a clean run over the real repository tree.
//
// The fixture directory is excluded from the analyzer's own tree scan, so
// the seeded violations never leak into CI runs. Where a fixture needs a
// specific path scope (src/ vs tests/), the test remaps the path when
// building the SourceFile.
#include "analyzer/analyzer.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dac::analyzer {
namespace {

std::string fixture_text(const std::string& name) {
  const std::string path = std::string(DACSCHED_ANALYZER_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

SourceFile fixture(const std::string& name, const std::string& as_path,
                   bool is_test = false) {
  return SourceFile{as_path, is_test, fixture_text(name)};
}

// The analyzer's suppression tag, assembled so this test file never trips
// the stale-nolint scan of the real tree.
std::string nolint(const std::string& rules) {
  return std::string("// NOLINT-DACSCHED") + "(" + rules + ")";
}

std::string diag_key(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ":" + rule_id(d.rule);
}

TEST(RuleTable, IdsRoundTrip) {
  for (const Rule rule : all_rules()) {
    Rule parsed{};
    ASSERT_TRUE(rule_from_id(rule_id(rule), &parsed)) << rule_id(rule);
    EXPECT_EQ(parsed, rule);
  }
  Rule out{};
  EXPECT_FALSE(rule_from_id("no-such-rule", &out));
}

TEST(PerFileRules, RawSync) {
  const auto report =
      analyze({fixture("raw_sync.cpp", "src/fixture/raw_sync.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/raw_sync.cpp:5:raw-sync");
}

TEST(PerFileRules, Detach) {
  const auto report = analyze({fixture("detach.cpp", "src/fixture/detach.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]), "src/fixture/detach.cpp:6:detach");
}

TEST(PerFileRules, SleepPollFlagsTestsOnly) {
  const auto in_test =
      analyze({fixture("sleep_poll.cpp", "tests/fixture/sleep_poll.cpp",
                       /*is_test=*/true)});
  ASSERT_EQ(in_test.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(in_test.diagnostics[0]),
            "tests/fixture/sleep_poll.cpp:6:sleep-poll");
  // The same content outside tests/ is not sleep-poll — there the raw-clock
  // rule owns the line: a production this_thread sleep bypasses the simtime
  // clock entirely, so DiscreteEvent mode would stall on it.
  const auto in_src =
      analyze({fixture("sleep_poll.cpp", "src/fixture/sleep_poll.cpp")});
  ASSERT_EQ(in_src.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(in_src.diagnostics[0]),
            "src/fixture/sleep_poll.cpp:6:raw-clock");
}

TEST(PerFileRules, RawClock) {
  // steady_clock::now() is flagged everywhere except src/simtime/ — in tests
  // too, because a test reading the real clock while the suite runs in
  // DiscreteEvent mode would compare wall time against virtual time.
  const auto in_src =
      analyze({fixture("raw_clock.cpp", "src/fixture/raw_clock.cpp")});
  ASSERT_EQ(in_src.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(in_src.diagnostics[0]),
            "src/fixture/raw_clock.cpp:6:raw-clock");
  const auto in_test = analyze(
      {fixture("raw_clock.cpp", "tests/fixture/raw_clock.cpp",
               /*is_test=*/true)});
  ASSERT_EQ(in_test.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(in_test.diagnostics[0]),
            "tests/fixture/raw_clock.cpp:6:raw-clock");
  // src/simtime/ is the one place allowed to touch the real clock (it is
  // the RealTime backend), so the same content there is clean.
  const auto in_simtime =
      analyze({fixture("raw_clock.cpp", "src/simtime/fixture.cpp")});
  EXPECT_TRUE(in_simtime.clean());
}

TEST(PerFileRules, NondetSeed) {
  const auto report =
      analyze({fixture("nondet_seed.cpp", "src/fixture/nondet_seed.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/nondet_seed.cpp:5:nondet-seed");
}

TEST(PerFileRules, IncludeHygiene) {
  const auto report =
      analyze({fixture("include_rule.hpp", "src/fixture/include_rule.hpp")});
  ASSERT_EQ(report.diagnostics.size(), 2u);  // missing pragma + "../" include
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/include_rule.hpp:3:include");
  EXPECT_EQ(diag_key(report.diagnostics[1]),
            "src/fixture/include_rule.hpp:3:include");
}

TEST(PerFileRules, BlockingUnderLock) {
  const auto report = analyze({fixture("blocking_under_lock.cpp",
                                       "src/fixture/blocking_under_lock.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/blocking_under_lock.cpp:14:blocking-under-lock");
}

TEST(PerFileRules, DeadlineLiteral) {
  const auto report = analyze(
      {fixture("deadline_literal.cpp", "src/fixture/deadline_literal.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  // Line 9: implicit default deadline. Line 10: the call whose options carry
  // a bare chrono literal (anchored at the call, not the literal's line).
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/deadline_literal.cpp:9:deadline-literal");
  EXPECT_EQ(diag_key(report.diagnostics[1]),
            "src/fixture/deadline_literal.cpp:10:deadline-literal");
  // Deadline discipline is relaxed for tests (they probe timeout edges).
  const auto as_test = analyze({fixture(
      "deadline_literal.cpp", "tests/fixture/deadline_literal.cpp", true)});
  EXPECT_TRUE(as_test.clean());
}

TEST(PerFileRules, FanOutNamesItsDeadline) {
  const auto report =
      analyze({fixture("fan_out.cpp", "src/fixture/fan_out.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/fan_out.cpp:25:deadline-literal");
}

TEST(PerFileRules, CallTableCallNamesItsDeadline) {
  const auto report =
      analyze({fixture("call_table.cpp", "src/fixture/call_table.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/call_table.cpp:16:deadline-literal");
}

TEST(PerFileRules, CheckSideEffect) {
  const auto report = analyze(
      {fixture("check_side_effect.cpp", "src/fixture/check_side_effect.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/check_side_effect.cpp:6:check-side-effect");
}

TEST(PerFileRules, StaleNolint) {
  const auto report =
      analyze({fixture("stale_nolint.cpp", "src/fixture/stale_nolint.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/stale_nolint.cpp:3:stale-nolint");
  EXPECT_EQ(report.total_suppressions(), 0);
}

TEST(PerFileRules, CleanFilePasses) {
  const auto report = analyze({fixture("clean.cpp", "src/fixture/clean.cpp")});
  EXPECT_TRUE(report.clean()) << diag_key(report.diagnostics[0]);
  EXPECT_EQ(report.total_suppressions(), 0);
}

TEST(Suppression, NolintSilencesAndIsCounted) {
  SourceFile f;
  f.path = "src/fixture/suppressed.cpp";
  f.text = "#include <mutex>\nstd::mutex g;  " + nolint("raw-sync") + "\n";
  const auto report = analyze({f});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_suppressions(), 1);
  EXPECT_EQ(report.suppressions.at("raw-sync"), 1);
}

TEST(Suppression, UnknownRuleIdIsAnError) {
  SourceFile f;
  f.path = "src/fixture/typo.cpp";
  f.text = "int x = 0;  " + nolint("raw-snyc") + "\n";
  const auto report = analyze({f});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, Rule::kStaleNolint);
}

TEST(Suppression, CommaListSuppressesSeveralRules) {
  SourceFile f;
  f.path = "tests/fixture/multi.cpp";
  f.is_test = true;
  f.text = "#include <mutex>\n"
           "void f() { std::mutex m; sleep_for(x); "
           "}  " + nolint("raw-sync,sleep-poll") + "\n";
  const auto report = analyze({f});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_suppressions(), 2);
}

TEST(CrossFileRules, HandlerCoverageAndSpanNames) {
  const auto report = analyze({
      fixture("mini_protocol.hpp", "src/torque/protocol.hpp"),
      fixture("mini_wire.cpp", "src/svc/wire.cpp"),
      fixture("mini_server.cpp", "src/mini/server.cpp"),
  });
  std::vector<std::string> keys;
  for (const auto& d : report.diagnostics) keys.push_back(diag_key(d));
  const std::vector<std::string> expected = {
      "src/mini/server.cpp:10:handler-coverage",   // duplicate kAlpha
      "src/mini/server.cpp:11:handler-coverage",   // unknown kOmega
      "src/svc/wire.cpp:7:span-name",              // kGamma has no span
      "src/svc/wire.cpp:10:span-name",             // duplicate span "ALPHA"
      "src/torque/protocol.hpp:9:handler-coverage" // kBeta unhandled
  };
  EXPECT_EQ(keys, expected);
}

TEST(CrossFileRules, NodiscardAndUncheckedStatus) {
  const auto report = analyze({
      fixture("mini_api.hpp", "src/mini/api.hpp"),
      fixture("mini_use.cpp", "src/mini/use.cpp"),
  });
  std::vector<std::string> keys;
  for (const auto& d : report.diagnostics) keys.push_back(diag_key(d));
  const std::vector<std::string> expected = {
      "src/mini/api.hpp:8:nodiscard",
      "src/mini/use.cpp:7:unchecked-status",
  };
  EXPECT_EQ(keys, expected);
}

TEST(CrossFileRules, AmbiguousNamesLeaveCallSitesAlone) {
  // A second declaration of do_thing returning void makes name-based
  // call-site matching unsafe; the bare call must not be flagged, while the
  // nodiscard hole on the Status-returning declaration still is.
  SourceFile other;
  other.path = "src/mini/other.hpp";
  other.text = "#pragma once\nvoid do_thing(double arg);\n";
  const auto report = analyze({
      fixture("mini_api.hpp", "src/mini/api.hpp"),
      fixture("mini_use.cpp", "src/mini/use.cpp"),
      other,
  });
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]), "src/mini/api.hpp:8:nodiscard");
}

TEST(Baseline, FormatParseRoundTrip) {
  const std::map<std::string, int> counts = {{"raw-sync", 3},
                                             {"sleep-poll", 7}};
  EXPECT_EQ(parse_baseline(format_baseline(counts)), counts);
}

TEST(Baseline, DriftIsReportedBothWays) {
  const std::map<std::string, int> base = {{"raw-sync", 3}, {"detach", 1}};
  EXPECT_TRUE(compare_baseline(base, base).empty());
  // Growth: a new suppression appeared.
  auto grown = base;
  grown["raw-sync"] = 4;
  EXPECT_EQ(compare_baseline(base, grown).size(), 1u);
  // Shrink (including to zero): the baseline is stale.
  const std::map<std::string, int> shrunk = {{"raw-sync", 3}};
  EXPECT_EQ(compare_baseline(base, shrunk).size(), 1u);
}

TEST(Cli, ExitCodesAndExplicitFiles) {
  const std::string bad =
      std::string(DACSCHED_ANALYZER_FIXTURES) + "/raw_sync.cpp";
  const std::string good =
      std::string(DACSCHED_ANALYZER_FIXTURES) + "/clean.cpp";
  {
    const char* argv[] = {"dacsched-analyzer", bad.c_str()};
    EXPECT_EQ(run_cli(2, argv), 1);
  }
  {
    const char* argv[] = {"dacsched-analyzer", good.c_str()};
    EXPECT_EQ(run_cli(2, argv), 0);
  }
  {
    const char* argv[] = {"dacsched-analyzer", "/no/such/file.cpp"};
    EXPECT_EQ(run_cli(2, argv), 2);
  }
  {
    const char* argv[] = {"dacsched-analyzer", "--bogus-flag"};
    EXPECT_EQ(run_cli(2, argv), 2);
  }
}

// ---- whole-program rules ---------------------------------------------------

TEST(WholeProgram, BlockingReachableTwoCallsDeepAcrossFiles) {
  // notify() holds a guard and calls relay_hop() -> transmit_rpc() ->
  // Caller::call, with the lower hops in a second file. The scope-local rule
  // sees nothing; the call-graph fixpoint reports the call site.
  const auto report = analyze(
      {fixture("blocking_reachable.cpp", "src/fixture/blocking_reachable.cpp"),
       fixture("blocking_reachable_lib.cpp",
               "src/fixture/blocking_reachable_lib.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/blocking_reachable.cpp:16:"
            "blocking-reachable-under-lock");
  // The diagnostic carries the full witness chain.
  EXPECT_NE(report.diagnostics[0].message.find(
                "relay_hop -> transmit_rpc -> Caller::call"),
            std::string::npos)
      << report.diagnostics[0].message;
  // Without the companion file the callee never resolves, and an unresolved
  // call contributes nothing (precision-first resolution).
  const auto alone = analyze({fixture("blocking_reachable.cpp",
                                      "src/fixture/blocking_reachable.cpp")});
  EXPECT_TRUE(alone.clean());
}

TEST(WholeProgram, BlockingReachableSuppressionAnchorsAtCallSite) {
  SourceFile caller =
      fixture("blocking_reachable.cpp", "src/fixture/blocking_reachable.cpp");
  const auto pos = caller.text.find("relay_hop();  // line 16");
  ASSERT_NE(pos, std::string::npos);
  caller.text.replace(pos, std::string("relay_hop();").size(),
                      "relay_hop();  " +
                          nolint("blocking-reachable-under-lock"));
  const auto report = analyze(
      {caller, fixture("blocking_reachable_lib.cpp",
                       "src/fixture/blocking_reachable_lib.cpp")});
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressions.at("blocking-reachable-under-lock"), 1);
}

TEST(WholeProgram, LockOrderStaticThreeMutexCycle) {
  const auto report =
      analyze({fixture("lock_cycle.cpp", "src/fixture/lock_cycle.cpp")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  // One diagnostic per cycle, anchored at its lexically smallest edge.
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/lock_cycle.cpp:16:lock-order-static");
  EXPECT_NE(report.diagnostics[0].message.find(
                "{cycle.alpha, cycle.beta, cycle.gamma}"),
            std::string::npos)
      << report.diagnostics[0].message;
  // All three edges are exported for the DOT artifact, all cycle-marked.
  ASSERT_EQ(report.lock_edges.size(), 3u);
  for (const auto& e : report.lock_edges) {
    EXPECT_TRUE(e.in_cycle) << e.from << " -> " << e.to;
  }
  const std::string dot = format_lock_dot(report.lock_edges);
  EXPECT_NE(dot.find("digraph lock_order"), std::string::npos);
  EXPECT_NE(dot.find("\"cycle.alpha\" -> \"cycle.beta\""), std::string::npos);
  EXPECT_NE(dot.find("src/fixture/lock_cycle.cpp:16"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(WholeProgram, ClockVisibilityFromActorThread) {
  const auto report = analyze(
      {fixture("clock_visibility.cpp", "src/fixture/clock_visibility.cpp")});
  // The raw join in stop_bad() and the std::latch in the actor entry's
  // callee are flagged; stop_good()'s ExternalWaitScope join is exempt.
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(diag_key(report.diagnostics[0]),
            "src/fixture/clock_visibility.cpp:18:clock-visibility");
  EXPECT_EQ(diag_key(report.diagnostics[1]),
            "src/fixture/clock_visibility.cpp:38:clock-visibility");
  EXPECT_NE(report.diagnostics[1].message.find("spawned via Runner::drive"),
            std::string::npos)
      << report.diagnostics[1].message;
}

// ---- JSON output -----------------------------------------------------------

TEST(Json, FormatPinsSchema) {
  Report r;
  r.files_scanned = 2;
  r.diagnostics.push_back(
      {"src/a.cpp", 7, Rule::kRawSync, "std::mutex is \"banned\""});
  r.suppressions["sleep-poll"] = 3;
  EXPECT_EQ(format_json(r),
            "{\n"
            "  \"files_scanned\": 2,\n"
            "  \"clean\": false,\n"
            "  \"diagnostics\": [\n"
            "    {\"file\": \"src/a.cpp\", \"line\": 7, \"rule\": "
            "\"raw-sync\", \"message\": \"std::mutex is \\\"banned\\\"\"}\n"
            "  ],\n"
            "  \"suppressions\": {\n"
            "    \"sleep-poll\": 3\n"
            "  }\n"
            "}\n");
  Report empty;
  EXPECT_EQ(format_json(empty),
            "{\n"
            "  \"files_scanned\": 0,\n"
            "  \"clean\": true,\n"
            "  \"diagnostics\": [],\n"
            "  \"suppressions\": {}\n"
            "}\n");
}

TEST(Cli, JsonFormatAndLockDot) {
  const std::string good =
      std::string(DACSCHED_ANALYZER_FIXTURES) + "/clean.cpp";
  const std::string cycle =
      std::string(DACSCHED_ANALYZER_FIXTURES) + "/lock_cycle.cpp";
  {
    const char* argv[] = {"dacsched-analyzer", "--format=json", good.c_str()};
    EXPECT_EQ(run_cli(3, argv), 0);
  }
  const std::string dot_path = testing::TempDir() + "dacsched_lock.dot";
  {
    const char* argv[] = {"dacsched-analyzer", "--lock-dot", dot_path.c_str(),
                          cycle.c_str()};
    EXPECT_EQ(run_cli(4, argv), 1);  // the seeded cycle is a diagnostic
  }
  std::ifstream in(dot_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("color=red"), std::string::npos);
}

// The acceptance gate: the real tree is clean and matches the checked-in
// suppression baseline. This is the same invocation the CI analyzer job
// runs, so a regression fails tier-1 locally before it ever reaches CI.
TEST(Tree, RepositoryIsCleanAgainstBaseline) {
  const std::string root = DACSCHED_REPO_ROOT;
  const std::string baseline = root + "/tools/analyzer/baseline.txt";
  const char* argv[] = {"dacsched-analyzer", "--root", root.c_str(),
                        "--baseline", baseline.c_str()};
  EXPECT_EQ(run_cli(5, argv), 0);
}

}  // namespace
}  // namespace dac::analyzer
