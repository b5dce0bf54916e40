#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/csr.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/string_util.h"

namespace hygnn::core {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

TEST(StatusTest, ResourceExhaustedFactory) {
  Status status = Status::ResourceExhausted("queue at capacity");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "ResourceExhausted: queue at capacity");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "hello");
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 16);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u) << "all residues should be hit";
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = items;
  rng.Shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 8000.0, 0.25, 0.03);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, StateRoundTripContinuesStreamBitExact) {
  Rng rng(123);
  for (int i = 0; i < 7; ++i) rng.Next();
  rng.Normal();  // leaves a cached Box-Muller spare in the state
  const Rng::State snapshot = rng.state();

  Rng resumed(0);  // different seed: state() must fully overwrite it
  resumed.set_state(snapshot);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(resumed.Next(), rng.Next());
  // The spare normal is part of the state too.
  Rng a(456), b(0);
  a.Normal();
  b.set_state(a.state());
  EXPECT_EQ(a.Normal(), b.Normal());
  EXPECT_EQ(a.Uniform(), b.Uniform());
}

// ---------- Csr ----------

/// What Csr::GroupBy must build: the positions stably sorted by key,
/// each key starting after the items of every smaller key.
Csr StableSortReference(const std::vector<int32_t>& keys, int64_t num_keys) {
  Csr expected;
  expected.indices.resize(keys.size());
  std::iota(expected.indices.begin(), expected.indices.end(), 0);
  std::stable_sort(expected.indices.begin(), expected.indices.end(),
                   [&](int32_t a, int32_t b) { return keys[a] < keys[b]; });
  expected.offsets.clear();
  for (int64_t k = 0; k <= num_keys; ++k) {
    expected.offsets.push_back(std::count_if(
        keys.begin(), keys.end(), [k](int32_t key) { return key < k; }));
  }
  return expected;
}

std::vector<int32_t> RandomKeys(Rng& rng, int64_t num_keys, size_t count) {
  std::vector<int32_t> keys(count);
  for (int32_t& key : keys) {
    key = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(num_keys)));
  }
  return keys;
}

std::vector<int32_t> Items(std::span<const int32_t> range) {
  return {range.begin(), range.end()};
}

TEST(CsrTest, GroupByMatchesStableSortReference) {
  // A fresh object per input, and one object regrouped across them all.
  Rng rng(2024);
  Csr reused;
  for (int trial = 0; trial < 2000; ++trial) {
    const int64_t num_keys = 1 + static_cast<int64_t>(rng.UniformInt(50));
    const std::vector<int32_t> keys =
        RandomKeys(rng, num_keys, rng.UniformInt(301));
    const Csr expected = StableSortReference(keys, num_keys);
    Csr fresh;
    fresh.GroupBy(keys, num_keys);
    reused.GroupBy(keys, num_keys);
    ASSERT_EQ(fresh.num_keys(), num_keys);
    ASSERT_EQ(fresh.offsets, expected.offsets) << "trial " << trial;
    ASSERT_EQ(fresh.indices, expected.indices) << "trial " << trial;
    ASSERT_EQ(reused.offsets, expected.offsets) << "trial " << trial;
    ASSERT_EQ(reused.indices, expected.indices) << "trial " << trial;
  }
}

TEST(CsrTest, GroupByEdgeCases) {
  const Csr empty;
  EXPECT_EQ(empty.num_keys(), 0);
  EXPECT_EQ(empty.offsets, std::vector<int64_t>{0});

  Csr csr;
  csr.GroupBy({}, 0);  // no items, no keys
  EXPECT_EQ(csr.num_keys(), 0);
  EXPECT_EQ(csr.offsets, std::vector<int64_t>{0});
  EXPECT_TRUE(csr.indices.empty());

  csr.GroupBy({}, 3);  // no items, three keys
  EXPECT_EQ(csr.offsets, (std::vector<int64_t>{0, 0, 0, 0}));
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_EQ(csr.Count(k), 0);
    EXPECT_TRUE(csr.Range(k).empty());
  }

  const std::vector<int32_t> gaps = {2, 0, 2, 4};  // keys 1 and 3 empty
  csr.GroupBy(gaps, 5);
  EXPECT_EQ(csr.offsets, (std::vector<int64_t>{0, 1, 1, 3, 3, 4}));
  EXPECT_EQ(csr.Count(1), 0);
  EXPECT_TRUE(csr.Range(1).empty());
  EXPECT_EQ(csr.Count(3), 0);
  EXPECT_TRUE(csr.Range(3).empty());
  EXPECT_EQ(Items(csr.Range(0)), std::vector<int32_t>{1});
  EXPECT_EQ(Items(csr.Range(2)), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(Items(csr.Range(4)), std::vector<int32_t>{3});

  const std::vector<int32_t> one_key(6, 1);  // every item on key 1
  csr.GroupBy(one_key, 3);
  EXPECT_EQ(csr.offsets, (std::vector<int64_t>{0, 0, 6, 6}));
  EXPECT_EQ(csr.Count(1), 6);
  EXPECT_EQ(Items(csr.Range(1)), (std::vector<int32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(CsrTest, RegroupingLargeSmallLargeEqualsFreshObjects) {
  // The pair kernels regroup one per-thread object on every call, at
  // whatever size the call brings: what a larger grouping left must not
  // show in a smaller one, nor the reverse.
  Rng rng(7);
  const std::vector<std::pair<int64_t, size_t>> shapes = {
      {50, 300}, {2, 3}, {0, 0}, {40, 250}, {3, 1}, {50, 300}};
  Csr reused;
  for (const auto& [num_keys, count] : shapes) {
    const std::vector<int32_t> keys = RandomKeys(rng, num_keys, count);
    Csr fresh;
    fresh.GroupBy(keys, num_keys);
    reused.GroupBy(keys, num_keys);
    EXPECT_EQ(reused.offsets, fresh.offsets) << num_keys << " keys";
    EXPECT_EQ(reused.indices, fresh.indices) << num_keys << " keys";
    EXPECT_EQ(fresh.indices, StableSortReference(keys, num_keys).indices);
  }
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

// ---------- flags ----------

TEST(FlagParserTest, ParsesBothForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "pos",
                        "--flag"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(6, argv).ok());
  EXPECT_EQ(parser.GetInt("alpha", 0), 3);
  EXPECT_EQ(parser.GetString("beta", ""), "hello");
  EXPECT_TRUE(parser.GetBool("flag", false));
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "pos");
}

TEST(FlagParserTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(1, argv).ok());
  EXPECT_EQ(parser.GetInt("missing", 99), 99);
  EXPECT_EQ(parser.GetDouble("missing", 0.5), 0.5);
}

TEST(FlagParserTest, DoubleValues) {
  const char* argv[] = {"prog", "--rate=0.25"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(2, argv).ok());
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate", 0.0), 0.25);
}

TEST(FlagParserTest, RequireKnownNamesTheStranger) {
  const char* argv[] = {"prog", "--epochs", "5", "--resme"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(4, argv).ok());
  EXPECT_TRUE(parser.RequireKnown({"epochs", "resme"}).ok());
  // A typo'd flag (--resme for --resume) must fail loudly, not be
  // silently ignored.
  auto status = parser.RequireKnown({"epochs", "resume"});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--resme"), std::string::npos);
}

TEST(ClockTest, ManualClockMovesOnlyWhenAdvanced) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowNanos(), 1000u);
  EXPECT_EQ(clock.NowNanos(), 1000u);  // reads do not advance it
  clock.AdvanceNanos(5);
  EXPECT_EQ(clock.NowNanos(), 1005u);
  clock.AdvanceMicros(2);
  EXPECT_EQ(clock.NowNanos(), 3005u);
}

TEST(ClockTest, ScopedClockInstallsAndRestoresTheActiveClock) {
  Clock* original = &ActiveClock();
  ManualClock manual(42);
  {
    ScopedClock scoped(&manual);
    EXPECT_EQ(&ActiveClock(), &manual);
    EXPECT_EQ(ActiveClock().NowNanos(), 42u);
    {
      ManualClock inner(7);
      ScopedClock nested(&inner);
      EXPECT_EQ(&ActiveClock(), &inner);
    }
    EXPECT_EQ(&ActiveClock(), &manual);  // nesting unwinds in order
  }
  EXPECT_EQ(&ActiveClock(), original);
}

TEST(ClockTest, MonotonicClockNeverGoesBackwards) {
  Clock& clock = MonotonicClock();
  uint64_t last = clock.NowNanos();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = clock.NowNanos();
    ASSERT_GE(now, last);
    last = now;
  }
  // The default active clock is the monotonic one.
  EXPECT_EQ(&ActiveClock(), &clock);
}

TEST(StatusTest, DeadlineExceededCodeIsDistinctAndNamed) {
  const auto status = Status::DeadlineExceeded("too slow");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(status.ToString(), "DeadlineExceeded: too slow");
  EXPECT_NE(static_cast<int>(StatusCode::kDeadlineExceeded),
            static_cast<int>(StatusCode::kResourceExhausted));
}

TEST(EnvFlagTest, ParsesTruthyFalsyAndFallsBack) {
  ASSERT_EQ(setenv("HYGNN_TEST_ENV_FLAG", "1", 1), 0);
  EXPECT_TRUE(EnvFlag("HYGNN_TEST_ENV_FLAG", false));
  ASSERT_EQ(setenv("HYGNN_TEST_ENV_FLAG", "no", 1), 0);
  EXPECT_FALSE(EnvFlag("HYGNN_TEST_ENV_FLAG", true));
  ASSERT_EQ(setenv("HYGNN_TEST_ENV_FLAG", "garbage", 1), 0);
  EXPECT_TRUE(EnvFlag("HYGNN_TEST_ENV_FLAG", true));
  ASSERT_EQ(unsetenv("HYGNN_TEST_ENV_FLAG"), 0);
  EXPECT_FALSE(EnvFlag("HYGNN_TEST_ENV_FLAG", false));
}

}  // namespace
}  // namespace hygnn::core
