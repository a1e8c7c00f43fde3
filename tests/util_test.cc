#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/diagnostics.h"
#include "util/faultinject.h"
#include "util/source_location.h"
#include "util/strings.h"

namespace sash {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a::b", ':'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ':'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ':'), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(":", ':'), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitLinesDropsTrailingNewline) {
  EXPECT_EQ(SplitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitLines(""), (std::vector<std::string>{}));
  EXPECT_EQ(SplitLines("\n"), (std::vector<std::string>{""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nx"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
  EXPECT_TRUE(Contains("foobar", "oba"));
  EXPECT_FALSE(Contains("foobar", "xyz"));
}

TEST(Strings, EscapeForDisplay) {
  EXPECT_EQ(EscapeForDisplay("a\nb"), "a\\nb");
  EXPECT_EQ(EscapeForDisplay("tab\there"), "tab\\there");
  EXPECT_EQ(EscapeForDisplay(std::string(1, '\x01')), "\\x01");
  EXPECT_EQ(EscapeForDisplay("it's"), "it\\'s");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "/"), "a/b/c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(Strings, AsciiLower) { EXPECT_EQ(AsciiLower("AbC9"), "abc9"); }

TEST(SourceRange, JoinAndToString) {
  SourceRange a{{0, 1, 1}, {3, 1, 4}};
  SourceRange b{{10, 2, 1}, {12, 2, 3}};
  SourceRange j = SourceRange::Join(a, b);
  EXPECT_EQ(j.begin.offset, 0u);
  EXPECT_EQ(j.end.offset, 12u);
  EXPECT_EQ(a.ToString(), "1:1-1:4");
  SourceRange point{{5, 3, 2}, {5, 3, 2}};
  EXPECT_EQ(point.ToString(), "3:2");
  EXPECT_TRUE(point.empty());
  EXPECT_FALSE(a.empty());
}

TEST(Diagnostics, EmitAndRender) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  Diagnostic& d = sink.Emit(Severity::kError, "SASH-TEST", SourceRange{{0, 4, 3}, {2, 4, 5}},
                            "something went wrong");
  d.notes.push_back(DiagnosticNote{{}, "witness: $0 = 'upd.sh'"});
  EXPECT_EQ(sink.size(), 1u);
  std::string rendered = sink.diagnostics()[0].ToString();
  EXPECT_NE(rendered.find("4:3-4:5 error[SASH-TEST]: something went wrong"), std::string::npos);
  EXPECT_NE(rendered.find("note: witness"), std::string::npos);
}

TEST(Diagnostics, CountAtLeast) {
  DiagnosticSink sink;
  sink.Emit(Severity::kInfo, "A", {}, "info");
  sink.Emit(Severity::kWarning, "B", {}, "warn");
  sink.Emit(Severity::kError, "C", {}, "err");
  EXPECT_EQ(sink.CountAtLeast(Severity::kWarning), 2u);
  EXPECT_EQ(sink.CountAtLeast(Severity::kError), 1u);
  EXPECT_EQ(sink.CountAtLeast(Severity::kNote), 3u);
}

TEST(Diagnostics, SeverityNames) {
  EXPECT_EQ(SeverityName(Severity::kNote), "note");
  EXPECT_EQ(SeverityName(Severity::kInfo), "info");
  EXPECT_EQ(SeverityName(Severity::kWarning), "warning");
  EXPECT_EQ(SeverityName(Severity::kError), "error");
}

// Golden rendering: the exact ToString output is part of the CLI's contract
// (scripts grep it), so pin the full string, notes included.
TEST(Diagnostics, ToStringGolden) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = "SASH-DEL-ROOT";
  d.range = SourceRange{{14, 2, 1}, {36, 2, 23}};
  d.message = "rm -rf may delete the file system root";
  d.notes.push_back(DiagnosticNote{{}, "witness: STEAMROOT = ''"});
  d.notes.push_back(DiagnosticNote{SourceRange{{0, 1, 1}, {13, 1, 14}}, "assigned here"});
  EXPECT_EQ(d.ToString(),
            "2:1-2:23 warning[SASH-DEL-ROOT]: rm -rf may delete the file system root\n"
            "  note: witness: STEAMROOT = ''\n"
            "  note: assigned here");

  Diagnostic bare;
  bare.severity = Severity::kError;
  bare.range = SourceRange{{5, 3, 2}, {5, 3, 2}};
  bare.message = "plain";
  EXPECT_EQ(bare.ToString(), "3:2 error: plain");
}

TEST(CancelToken, DefaultTokenNeverTrips) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelReason::kNone);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(token.CheckStep());
  }
  EXPECT_FALSE(token.CheckNow());
  EXPECT_TRUE(token.ChargeBytes(1 << 30));
  EXPECT_EQ(token.steps(), 1000);
}

TEST(CancelToken, FirstReasonWins) {
  util::CancelToken token;
  token.Cancel(util::CancelReason::kStateCap);
  token.Cancel(util::CancelReason::kTimeout);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), util::CancelReason::kStateCap);
  EXPECT_TRUE(token.CheckStep());
  EXPECT_TRUE(token.CheckNow());
  EXPECT_FALSE(token.ChargeBytes(1));  // Already cancelled.
}

TEST(CancelToken, StepBudgetTripsExactlyPastTheBudget) {
  util::CancelToken token;
  token.set_step_budget(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(token.CheckStep()) << "step " << i;
  }
  EXPECT_TRUE(token.CheckStep());
  EXPECT_EQ(token.reason(), util::CancelReason::kStepCap);
}

TEST(CancelToken, ByteBudgetTripsWithInputTooLarge) {
  util::CancelToken token;
  token.set_byte_budget(10);
  EXPECT_TRUE(token.ChargeBytes(6));
  EXPECT_FALSE(token.ChargeBytes(6));
  EXPECT_EQ(token.reason(), util::CancelReason::kInputTooLarge);
  EXPECT_FALSE(token.ChargeBytes(0));
}

TEST(CancelToken, CheckNowCatchesAnExpiredDeadline) {
  util::CancelToken token;
  token.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(token.CheckNow());
  EXPECT_EQ(token.reason(), util::CancelReason::kTimeout);
}

TEST(CancelToken, CheckStepDetectsDeadlineWithinOneClockStride) {
  util::CancelToken token;
  token.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // The clock is only read every kClockStride steps, so cancellation must
  // land within one full stride of polling — never later.
  bool tripped = false;
  for (int64_t i = 0; i < util::CancelToken::kClockStride && !tripped; ++i) {
    tripped = token.CheckStep();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(token.reason(), util::CancelReason::kTimeout);
}

TEST(CancelToken, ReasonNamesAreStable) {
  using util::CancelReason;
  EXPECT_EQ(util::CancelReasonName(CancelReason::kNone), "none");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kTimeout), "timeout");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kStepCap), "step-cap");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kStateCap), "state-cap");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kDepthCap), "depth-cap");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kInputTooLarge), "input-too-large");
  EXPECT_EQ(util::CancelReasonName(CancelReason::kExternal), "external");
}

TEST(FaultPlan, ParsesEveryRuleShape) {
  util::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(util::FaultPlan::Parse(
      "cache.write#1=fail; cache.read~foo.sh=torn;pool.task%50@3=delay;analyze.file=corrupt;"
      "cache.rename#2",
      &plan, &error))
      << error;
  ASSERT_EQ(plan.rules.size(), 5u);

  EXPECT_EQ(plan.rules[0].site, util::FaultSite::kCacheWrite);
  EXPECT_EQ(plan.rules[0].nth, 1);
  EXPECT_EQ(plan.rules[0].action, util::FaultAction::kFail);

  EXPECT_EQ(plan.rules[1].site, util::FaultSite::kCacheRead);
  EXPECT_EQ(plan.rules[1].match, "foo.sh");
  EXPECT_EQ(plan.rules[1].action, util::FaultAction::kTorn);

  EXPECT_EQ(plan.rules[2].site, util::FaultSite::kPoolTask);
  EXPECT_EQ(plan.rules[2].per_mille, 50);
  EXPECT_EQ(plan.rules[2].delay_ms, 3);
  EXPECT_EQ(plan.rules[2].action, util::FaultAction::kDelay);

  EXPECT_EQ(plan.rules[3].site, util::FaultSite::kAnalyzeFile);
  EXPECT_EQ(plan.rules[3].action, util::FaultAction::kCorrupt);

  // Action defaults to fail when omitted.
  EXPECT_EQ(plan.rules[4].site, util::FaultSite::kCacheRename);
  EXPECT_EQ(plan.rules[4].nth, 2);
  EXPECT_EQ(plan.rules[4].action, util::FaultAction::kFail);
}

TEST(FaultPlan, RejectsMalformedRules) {
  util::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(util::FaultPlan::Parse("disk.read=fail", &plan, &error));
  EXPECT_NE(error.find("unknown fault site"), std::string::npos);
  EXPECT_FALSE(util::FaultPlan::Parse("cache.read=explode", &plan, &error));
  EXPECT_NE(error.find("unknown fault action"), std::string::npos);
  EXPECT_FALSE(util::FaultPlan::Parse("cache.read#0=fail", &plan, &error));
  EXPECT_FALSE(util::FaultPlan::Parse("cache.read#x=fail", &plan, &error));
  EXPECT_FALSE(util::FaultPlan::Parse("cache.read%1001=fail", &plan, &error));
  EXPECT_FALSE(util::FaultPlan::Parse("", &plan, &error));
  EXPECT_EQ(error, "fault plan has no rules");
}

TEST(FaultPlan, DefaultChaosConfinesItselfToAbsorbableSites) {
  util::FaultPlan plan = util::FaultPlan::DefaultChaos(42);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_FALSE(plan.rules.empty());
  for (const util::FaultRule& rule : plan.rules) {
    // analyze.file changes functional outcomes; the chaos plan must never
    // touch it — only sites the pipeline absorbs with identical results.
    EXPECT_NE(rule.site, util::FaultSite::kAnalyzeFile);
    EXPECT_GT(rule.per_mille, 0);
  }
}

TEST(FaultInjector, NthRuleFiresExactlyOnce) {
  util::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(util::FaultPlan::Parse("cache.write#2=fail", &plan, &error)) << error;
  util::FaultInjector::Install(plan);
  EXPECT_FALSE(util::FaultInjector::Check(util::FaultSite::kCacheWrite, "a"));
  util::FaultDecision second = util::FaultInjector::Check(util::FaultSite::kCacheWrite, "a");
  EXPECT_EQ(second.action, util::FaultAction::kFail);
  EXPECT_FALSE(util::FaultInjector::Check(util::FaultSite::kCacheWrite, "a"));
  EXPECT_EQ(util::FaultInjector::fires(), 1);
  util::FaultInjector::Uninstall();
}

TEST(FaultInjector, MatchAndSiteFilterBeforeFiring) {
  util::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(util::FaultPlan::Parse("cache.read~foo=torn", &plan, &error)) << error;
  util::FaultInjector::Install(plan);
  EXPECT_FALSE(util::FaultInjector::Check(util::FaultSite::kCacheRead, "bar.sh"));
  EXPECT_FALSE(util::FaultInjector::Check(util::FaultSite::kCacheWrite, "foo.sh"));
  util::FaultDecision hit = util::FaultInjector::Check(util::FaultSite::kCacheRead, "x/foo.sh");
  EXPECT_EQ(hit.action, util::FaultAction::kTorn);
  util::FaultInjector::Uninstall();
}

TEST(FaultInjector, RateRulesAreDeterministicPerDetail) {
  // The roll hashes (seed, site, detail, rule) but not the occurrence index,
  // so a rate rule's verdict for one detail string is stable across repeats
  // and across re-installs — thread scheduling cannot change the victims.
  util::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(util::FaultPlan::Parse("cache.read%500=corrupt", &plan, &error)) << error;
  plan.seed = 7;
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    util::FaultInjector::Install(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) {
      for (int rep = 0; rep < 2; ++rep) {
        util::FaultDecision d =
            util::FaultInjector::Check(util::FaultSite::kCacheRead, "f" + std::to_string(i));
        if (rep == 0) {
          fired.push_back(static_cast<bool>(d));
        } else {
          EXPECT_EQ(static_cast<bool>(d), fired.back()) << "repeat diverged at " << i;
        }
      }
    }
    util::FaultInjector::Uninstall();
    if (round == 0) {
      first = fired;
      // A 500‰ rule over 32 details should fire somewhere and spare somewhere.
      EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
      EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
    } else {
      EXPECT_EQ(fired, first);
    }
  }
}

TEST(FaultInjector, PayloadFaultsAreDeterministicAndBounded) {
  util::FaultDecision torn;
  torn.action = util::FaultAction::kTorn;
  torn.roll = 1234567;
  std::string payload = "0123456789";
  util::FaultInjector::ApplyPayloadFault(torn, &payload);
  EXPECT_LT(payload.size(), 10u);
  EXPECT_EQ(payload, std::string("0123456789").substr(0, 1234567 % 10));

  util::FaultDecision corrupt;
  corrupt.action = util::FaultAction::kCorrupt;
  corrupt.roll = 98765;
  std::string flipped = "0123456789";
  util::FaultInjector::ApplyPayloadFault(corrupt, &flipped);
  EXPECT_EQ(flipped.size(), 10u);
  int diffs = 0;
  for (size_t i = 0; i < flipped.size(); ++i) {
    diffs += flipped[i] != "0123456789"[i];
  }
  EXPECT_EQ(diffs, 1);

  std::string empty;
  util::FaultInjector::ApplyPayloadFault(corrupt, &empty);
  EXPECT_TRUE(empty.empty());
  util::FaultInjector::ApplyPayloadFault(corrupt, nullptr);  // Must not crash.
}

TEST(Strings, ParseInt64AcceptsStrictDecimal) {
  int64_t v = -1;
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("-13", &v));
  EXPECT_EQ(v, -13);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));  // INT64_MAX.
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));  // INT64_MIN.
  EXPECT_EQ(v, INT64_MIN);
}

TEST(Strings, ParseInt64RejectsGarbageAndOverflow) {
  int64_t v = 99;
  // Everything atoi/atoll silently mangles must be an explicit failure.
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("+", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("12abc", &v));
  EXPECT_FALSE(ParseInt64("abc12", &v));
  EXPECT_FALSE(ParseInt64(" 5", &v));
  EXPECT_FALSE(ParseInt64("5 ", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("0x10", &v));
  EXPECT_FALSE(ParseInt64("--3", &v));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));   // INT64_MAX + 1.
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));  // INT64_MIN - 1.
  EXPECT_FALSE(ParseInt64("99999999999999999999", &v));
  EXPECT_EQ(v, 99);  // *out untouched on failure.
}

}  // namespace
}  // namespace sash
