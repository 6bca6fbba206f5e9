// Unit tests for the support layer: integer log/sqrt helpers, shape
// fitting, RNG determinism, table rendering and CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "support/cli.hpp"
#include "support/env.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/series.hpp"
#include "support/table.hpp"

namespace pmonge {
namespace {

// Scoped setenv/unsetenv so env-knob tests cannot leak into each other.
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(EnvUint, UnsetAndEmptyAreNullopt) {
  EnvVarGuard unset("PMONGE_TEST_KNOB", nullptr);
  EXPECT_FALSE(support::env_uint("PMONGE_TEST_KNOB").has_value());
  EnvVarGuard empty("PMONGE_TEST_KNOB", "");
  EXPECT_FALSE(support::env_uint("PMONGE_TEST_KNOB").has_value());
}

TEST(EnvUint, ParsesCleanIntegers) {
  EnvVarGuard g("PMONGE_TEST_KNOB", "8");
  EXPECT_EQ(support::env_uint("PMONGE_TEST_KNOB"), 8u);
  EnvVarGuard g0("PMONGE_TEST_KNOB", "0");
  EXPECT_EQ(support::env_uint("PMONGE_TEST_KNOB"), 0u);
}

TEST(EnvUint, MalformedThrowsQuotingTheValue) {
  // The bug class this guards against: PMONGE_THREADS=1O (letter O)
  // silently becoming the default and changing performance unannounced.
  for (const char* bad : {"1O", "-1", "+3", " 4", "4 ", "3.5", "0x10", "o"}) {
    EnvVarGuard g("PMONGE_THREADS", bad);
    try {
      (void)support::env_uint("PMONGE_THREADS");
      FAIL() << "expected throw for PMONGE_THREADS=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("PMONGE_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos)
          << "message must quote the offending string: " << what;
    }
  }
}

TEST(EnvUint, OutOfRangeThrows) {
  EnvVarGuard g("PMONGE_THREADS", "99999999999999999999999999");
  EXPECT_THROW((void)support::env_uint("PMONGE_THREADS"),
               std::invalid_argument);
}

TEST(EnvUintOr, DefaultAndClamp) {
  EnvVarGuard unset("PMONGE_FUZZ_SEED", nullptr);
  EXPECT_EQ(support::env_uint_or("PMONGE_FUZZ_SEED", 42), 42u);
  EnvVarGuard zero("PMONGE_FUZZ_SEED", "0");
  EXPECT_EQ(support::env_uint_or("PMONGE_FUZZ_SEED", 42, 1), 1u);
  EnvVarGuard bad("PMONGE_FUZZ_SEED", "12junk");
  EXPECT_THROW((void)support::env_uint_or("PMONGE_FUZZ_SEED", 42),
               std::invalid_argument);
}

TEST(Histogram, CounterAndLogHistogram) {
  support::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  support::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 100u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1106u);
  // Quantile bounds are bucket upper bounds: monotone in q and >= the
  // true quantile.
  EXPECT_LE(h.quantile_bound(0.5), h.quantile_bound(0.99));
  EXPECT_GE(h.quantile_bound(1.0), 1000u);
}

TEST(Histogram, QuantileBoundEmpty) {
  support::LogHistogram h;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile_bound(q), 0u) << "q=" << q;
  }
}

TEST(Histogram, QuantileBoundSingleSample) {
  // One sample: every q maps to rank 0, so every q reports the sample's
  // bucket edge.  100 has bit width 7 -> bucket [64, 128) -> bound 127.
  support::LogHistogram h;
  h.record(100);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile_bound(q), 127u) << "q=" << q;
  }
  // A single zero sample sits in bucket 0, whose edge is 0.
  support::LogHistogram z;
  z.record(0);
  EXPECT_EQ(z.quantile_bound(0.5), 0u);
}

TEST(Histogram, QuantileBoundAllSameBucket) {
  // Every sample in [64, 128): q = 0 and q = 1 must agree exactly on the
  // shared bucket edge 127.
  support::LogHistogram h;
  for (std::uint64_t v = 64; v < 128; ++v) h.record(v);
  EXPECT_EQ(h.quantile_bound(0.0), 127u);
  EXPECT_EQ(h.quantile_bound(0.5), 127u);
  EXPECT_EQ(h.quantile_bound(1.0), 127u);
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.quantile_bound(-1.0), 127u);
  EXPECT_EQ(h.quantile_bound(2.0), 127u);
}

TEST(Histogram, SparseBucketsMatchRecords) {
  support::LogHistogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(100);  // bucket 7
  h.record(100);
  const auto b = h.buckets();
  ASSERT_EQ(b.size(), support::LogHistogram::kBuckets);
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[7], 2u);
  std::uint64_t total = 0;
  for (const auto n : b) total += n;
  EXPECT_EQ(total, h.count());
}

TEST(CeilLg, SmallValues) {
  EXPECT_EQ(ceil_lg(1), 0);
  EXPECT_EQ(ceil_lg(2), 1);
  EXPECT_EQ(ceil_lg(3), 2);
  EXPECT_EQ(ceil_lg(4), 2);
  EXPECT_EQ(ceil_lg(5), 3);
  EXPECT_EQ(ceil_lg(1024), 10);
  EXPECT_EQ(ceil_lg(1025), 11);
}

TEST(CeilLg, RejectsZero) { EXPECT_THROW(ceil_lg(0), std::invalid_argument); }

TEST(FloorLg, Values) {
  EXPECT_EQ(floor_lg(1), 0);
  EXPECT_EQ(floor_lg(2), 1);
  EXPECT_EQ(floor_lg(3), 1);
  EXPECT_EQ(floor_lg(1023), 9);
  EXPECT_EQ(floor_lg(1024), 10);
}

TEST(CeilLgLg, Values) {
  EXPECT_EQ(ceil_lglg(1), 0);
  EXPECT_EQ(ceil_lglg(2), 0);
  EXPECT_EQ(ceil_lglg(4), 1);
  EXPECT_EQ(ceil_lglg(16), 2);
  EXPECT_EQ(ceil_lglg(256), 3);
  EXPECT_EQ(ceil_lglg(65536), 4);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
}

TEST(IsPow2, Values) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Isqrt, ExactAndBetween) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(99), 9u);
  EXPECT_EQ(isqrt(100), 10u);
  EXPECT_EQ(isqrt(1'000'000'000'000ULL), 1'000'000u);
}

TEST(ShapeFit, PerfectLgSeries) {
  std::vector<SeriesPoint> pts;
  for (double n : {64.0, 256.0, 1024.0, 4096.0}) {
    pts.push_back({n, 3.0 * std::log2(n)});
  }
  const auto fit = fit_shape(pts, shape_lg());
  EXPECT_NEAR(fit.constant, 3.0, 1e-9);
  EXPECT_NEAR(fit.max_rel_dev, 0.0, 1e-9);
  EXPECT_TRUE(matches_shape(pts, shape_lg(), 0.01));
}

TEST(ShapeFit, LinearSeriesIsNotLg) {
  std::vector<SeriesPoint> pts;
  for (double n : {64.0, 256.0, 1024.0, 4096.0}) pts.push_back({n, 2.0 * n});
  EXPECT_FALSE(matches_shape(pts, shape_lg(), 0.5));
  EXPECT_TRUE(matches_shape(pts, shape_linear(), 0.01));
}

TEST(ShapeFit, RatioEndpointsExposeGrowth) {
  std::vector<SeriesPoint> pts{{64, 6}, {4096, 12}};
  const auto fit = fit_shape(pts, shape_lg());
  EXPECT_NEAR(fit.ratio_first, 1.0, 1e-9);
  EXPECT_NEAR(fit.ratio_last, 1.0, 1e-9);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiverge) {
  Rng a(1), b(2);
  int diff = 0;
  for (int i = 0; i < 16; ++i) diff += (a() != b());
  EXPECT_GT(diff, 0);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"model", "n", "steps"});
  t.add_row({"CRCW", "1024", "37"});
  t.add_row({"CREW", "1024", "122"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("CRCW"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumGroupsDigits) {
  EXPECT_EQ(Table::num(0), "0");
  EXPECT_EQ(Table::num(999), "999");
  EXPECT_EQ(Table::num(1000), "1,000");
  EXPECT_EQ(Table::num(1234567), "1,234,567");
}

TEST(Cli, ParsesFlagsAndPositional) {
  // Note: a bare `--flag` followed by a non-flag token would consume it
  // as a value (the usual `--key value` ambiguity), so boolean flags go
  // last or use `--flag=1`.
  const char* argv[] = {"prog", "--n=128", "--verbose", "--reps", "3",
                        "input.txt"};
  Cli cli(6, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("reps", 0), 3);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
}

}  // namespace
}  // namespace pmonge
