// The monotonicity check must report exactly what the all-pairs scan
// reports: the same violations, in the same order, with the same text. The
// chaos and load digests hash the verdict text, so a reordered or merged
// violation would move them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rcs/common/rng.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/history.hpp"

namespace rcs::ftm {
namespace {

constexpr const char* kBackwards = "counter went backwards";

/// The reference: every ordered pair of observations, in record order.
std::vector<std::string> brute_force_backwards(
    const std::vector<HistoryRecord>& records) {
  std::vector<std::string> out;
  for (const auto& earlier : records) {
    const auto ev = observed_counter(earlier, "ctr");
    if (!ev) continue;
    for (const auto& later : records) {
      const auto lv = observed_counter(later, "ctr");
      if (lv && earlier.completed <= later.sent && *ev > *lv) {
        out.push_back(strf("counter went backwards: request ", earlier.id,
                           " observed ", *ev, ", then request ", later.id,
                           " observed ", *lv));
      }
    }
  }
  return out;
}

/// A history over a short time span and a narrow value range, so requests
/// overlap, touch end to end (completed == sent) and go backwards often.
/// Some records are filtered out of the check: an error outcome, another
/// key, a get that found nothing.
std::vector<HistoryRecord> random_history(Rng& rng, int n) {
  std::vector<HistoryRecord> records;
  for (int i = 0; i < n; ++i) {
    HistoryRecord r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.op = rng.uniform_int(0, 1) == 0 ? "incr" : "get";
    r.key = rng.uniform_int(0, 9) == 0 ? "other" : "ctr";
    r.sent = rng.uniform_int(0, 200);
    r.completed = r.sent + rng.uniform_int(0, 20);
    r.outcome = rng.uniform_int(0, 9) == 0 ? HistoryRecord::Outcome::kError
                                           : HistoryRecord::Outcome::kOk;
    const std::int64_t value = rng.uniform_int(1, 40) + r.sent / 10;
    r.result = Value::map().set("value", value);
    if (r.op == "get") r.result.set("found", rng.uniform_int(0, 7) != 0);
    records.push_back(std::move(r));
  }
  return records;
}

TEST(HistoryChecker, MonotonicityMatchesAllPairsScan) {
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto records =
        random_history(rng, static_cast<int>(rng.uniform_int(0, 120)));
    const auto report = HistoryChecker::check(records, {});
    std::vector<std::string> backwards;
    for (const auto& v : report.violations) {
      if (v.rfind(kBackwards, 0) == 0) backwards.push_back(v);
    }
    const auto expected = brute_force_backwards(records);
    ASSERT_EQ(backwards, expected);
    total += expected.size();
  }
  // The histories must actually exercise the violation path.
  EXPECT_GT(total, 100u);
}

}  // namespace
}  // namespace rcs::ftm
