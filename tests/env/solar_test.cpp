#include "env/solar.hpp"

#include <gtest/gtest.h>

#include "common/require.hpp"

namespace focv::env {
namespace {

TEST(Solar, ElevationBounded) {
  SolarConfig cfg;
  for (double t = 0; t < 86400; t += 600) {
    const double s = solar_elevation_sin(cfg, t);
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(Solar, NoonIsHighestMidnightLowest) {
  SolarConfig cfg;
  const double noon = solar_elevation_sin(cfg, 43200);
  const double midnight = solar_elevation_sin(cfg, 0);
  EXPECT_GT(noon, 0.0);
  EXPECT_LT(midnight, 0.0);
  EXPECT_GT(noon, solar_elevation_sin(cfg, 30000));
}

TEST(Solar, SunriseBeforeSunset) {
  SolarConfig cfg;
  const double rise = sunrise_time(cfg);
  const double set = sunset_time(cfg);
  ASSERT_GT(rise, 0.0);
  ASSERT_GT(set, 0.0);
  EXPECT_LT(rise, 43200.0);
  EXPECT_GT(set, 43200.0);
}

TEST(Solar, SummerDaysLongerThanWinter) {
  SolarConfig summer;
  summer.day_of_year = 172;  // ~June 21
  SolarConfig winter;
  winter.day_of_year = 355;  // ~December 21
  const double summer_len = sunset_time(summer) - sunrise_time(summer);
  const double winter_len = sunset_time(winter) - sunrise_time(winter);
  EXPECT_GT(summer_len, winter_len + 3600.0);
}

TEST(Solar, ClearSkyZeroAtNightPositiveAtNoon) {
  SolarConfig cfg;
  EXPECT_DOUBLE_EQ(clear_sky_illuminance(cfg, 0.0), 0.0);
  const double noon = clear_sky_illuminance(cfg, 43200);
  EXPECT_GT(noon, 20000.0);
  EXPECT_LT(noon, 130000.0);
}

TEST(Solar, TwilightIsDim) {
  SolarConfig cfg;
  const double rise = sunrise_time(cfg);
  const double just_after = clear_sky_illuminance(cfg, rise + 300.0);
  EXPECT_GT(just_after, 0.0);
  EXPECT_LT(just_after, 10000.0);
}

TEST(Solar, RejectsBadDayOfYear) {
  SolarConfig cfg;
  cfg.day_of_year = 0;
  EXPECT_THROW((void)solar_elevation_sin(cfg, 0.0), PreconditionError);
}

}  // namespace
}  // namespace focv::env
