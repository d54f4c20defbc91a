#include "util/log.h"

#include <gtest/gtest.h>

#include "net/prefix.h"

namespace tn::util {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(LogTest, ThresholdGatesEnabledCheck) {
  set_log_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
}

TEST_F(LogTest, OffDisablesEverything) {
  set_log_level(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
}

TEST_F(LogTest, ParseNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kInfo);
}

struct FormatProbe {
  int* counter;
};
std::ostream& operator<<(std::ostream& os, const FormatProbe& probe) {
  ++*probe.counter;
  return os;
}

// Library call sites pass addresses and prefixes as parts (their
// operator<<), not pre-built to_string() results, so a disabled level costs
// no formatting at all; an enabled one prints what to_string() would.
TEST_F(LogTest, LazyFormattingDoesNotRunWhenDisabled) {
  const net::Prefix prefix =
      net::Prefix::covering(net::Ipv4Addr(10, 1, 2, 3), 30);
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  testing::internal::CaptureStderr();
  log(LogLevel::kDebug, "test", prefix.network(), " in ", prefix,
      FormatProbe{&evaluations});
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(evaluations, 0);

  testing::internal::CaptureStderr();
  log(LogLevel::kError, "test", prefix.network(), " in ", prefix,
      FormatProbe{&evaluations});
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[ERROR] test: 10.1.2.0 in 10.1.2.0/30\n");
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace tn::util
