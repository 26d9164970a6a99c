// Ratchet on the event stepper's contract over a fixed roster: every
// registry law plus `direct[drop=0.4V]`, on the office, outdoor,
// desk_sunday and semi_mobile days, at lux_scale 0.65, 1 and 1.31, from
// a 3.0 V or an empty store — 240 kEvent-vs-kFixed pairs. A pair breaks
// when one of expect_equivalent's five energies differs by more than
// 0.1 %; an outdoor cold start from 0 V breaks when the run throws.
// The breaks known today are listed by name below. A test fails when a
// pair outside its list breaks, and when a listed pair holds: the list
// can only shrink, and the change that mends a pair deletes its line.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "env/profiles.hpp"
#include "node/harvester_node.hpp"
#include "pv/cell_library.hpp"

namespace focv {
namespace {

constexpr double kRelBound = 1e-3;  // the 0.1 % equivalence contract

/// Pairs out of contract today (46), as "law/day/xscale/store".
const std::vector<std::string> kKnownBreaks = {
    "focv/desk_sunday/x0.65/0V",
    "fixed/desk_sunday/x0.65/3V",
    "fixed/desk_sunday/x0.65/0V",
    "fixed/desk_sunday/x1/3V",
    "fixed/desk_sunday/x1/0V",
    "fixed/desk_sunday/x1.31/3V",
    "fixed/desk_sunday/x1.31/0V",
    "pilot/desk_sunday/x0.65/3V",
    "pilot/desk_sunday/x0.65/0V",
    "pilot/desk_sunday/x1/3V",
    "pilot/desk_sunday/x1/0V",
    "direct/desk_sunday/x0.65/0V",
    "direct/desk_sunday/x1/0V",
    "direct/desk_sunday/x1.31/0V",
    "photo/outdoor/x0.65/3V",
    "photo/outdoor/x0.65/0V",
    "photo/desk_sunday/x0.65/3V",
    "photo/desk_sunday/x0.65/0V",
    "photo/desk_sunday/x1/3V",
    "photo/desk_sunday/x1/0V",
    "photo/desk_sunday/x1.31/3V",
    "photo/desk_sunday/x1.31/0V",
    "pando/desk_sunday/x0.65/3V",
    "pando/desk_sunday/x0.65/0V",
    "pando/desk_sunday/x1/3V",
    "pando/desk_sunday/x1/0V",
    "pando/desk_sunday/x1.31/3V",
    "pando/desk_sunday/x1.31/0V",
    "inccond/desk_sunday/x0.65/3V",
    "inccond/desk_sunday/x0.65/0V",
    "inccond/desk_sunday/x1/3V",
    "inccond/desk_sunday/x1/0V",
    "inccond/desk_sunday/x1.31/3V",
    "inccond/desk_sunday/x1.31/0V",
    "periodic/desk_sunday/x0.65/3V",
    "periodic/desk_sunday/x0.65/0V",
    "periodic/desk_sunday/x1/3V",
    "periodic/desk_sunday/x1/0V",
    "periodic/desk_sunday/x1.31/3V",
    "periodic/desk_sunday/x1.31/0V",
    "graddesc/desk_sunday/x0.65/3V",
    "graddesc/desk_sunday/x0.65/0V",
    "direct[drop=0.4V]/office/x1.31/3V",
    "direct[drop=0.4V]/desk_sunday/x0.65/0V",
    "direct[drop=0.4V]/desk_sunday/x1/0V",
    "direct[drop=0.4V]/desk_sunday/x1.31/0V",
};

/// Outdoor cold starts from 0 V that throw today (14), as "law/stepper".
const std::vector<std::string> kKnownThrows = {
    "focv/fixed",
    "fixed/fixed",
    "pilot/fixed",
    "pilot/event",
    "photo/fixed",
    "photo/event",
    "pando/fixed",
    "pando/event",
    "inccond/fixed",
    "inccond/event",
    "periodic/fixed",
    "periodic/event",
    "graddesc/fixed",
    "graddesc/event",
};

const char* const kLaws[] = {"focv",    "fixed",    "pilot",    "direct",
                             "photo",   "pando",    "inccond",  "periodic",
                             "graddesc", "direct[drop=0.4V]"};

double rel(double a, double b) {
  const double d = std::abs(a - b);
  const double m = std::max(std::abs(a), std::abs(b));
  return m > 1e-12 ? d / m : 0.0;
}

struct Day {
  const char* name;
  env::LightTrace trace;
};

const std::vector<Day>& days() {
  static const std::vector<Day> d = {{"office", env::office_desk_mixed()},
                                     {"outdoor", env::outdoor_day({})},
                                     {"desk_sunday", env::desk_sunday_blinds_closed()},
                                     {"semi_mobile", env::semi_mobile_day()}};
  return d;
}

node::NodeConfig config_for(const std::string& law) {
  node::NodeConfig cfg;
  cfg.use_cell(pv::sanyo_am1815());
  cfg.use_controller(law);
  return cfg;
}

constexpr double kScales[] = {0.65, 1.0, 1.31};
constexpr double kStores[] = {3.0, 0.0};

std::string pair_name(const std::string& law, const char* day, double lux_scale, double store_v) {
  char name[96];
  std::snprintf(name, sizeof name, "%s/%s/x%g/%gV", law.c_str(), day, lux_scale, store_v);
  return name;
}

std::string cold_start_name(const std::string& law, node::Stepper stepper) {
  return law + (stepper == node::Stepper::kFixed ? "/fixed" : "/event");
}

bool listed(const std::vector<std::string>& list, const std::string& name) {
  return std::find(list.begin(), list.end(), name) != list.end();
}

/// The largest relative gap of expect_equivalent's five energies.
double worst_gap(const node::NodeReport& fixed, const node::NodeReport& event) {
  return std::max({rel(fixed.harvested_energy, event.harvested_energy),
                   rel(fixed.delivered_energy, event.delivered_energy),
                   rel(fixed.overhead_energy, event.overhead_energy),
                   rel(fixed.load_energy_served, event.load_energy_served),
                   rel(fixed.ideal_mpp_energy, event.ideal_mpp_energy)});
}

class ContractRatchet : public ::testing::TestWithParam<const char*> {};

TEST_P(ContractRatchet, EventPairsHoldOrAreListed) {
  const std::string law = GetParam();
  for (const Day& day : days()) {
    for (const double lux_scale : kScales) {
      for (const double store_v : kStores) {
        const std::string name = pair_name(law, day.name, lux_scale, store_v);
        node::NodeConfig cfg = config_for(law);
        cfg.lux_scale = lux_scale;
        cfg.storage.initial_voltage = store_v;
        cfg.stepper = node::Stepper::kFixed;
        const node::NodeReport fixed = node::simulate_node(day.trace, cfg);
        cfg.stepper = node::Stepper::kEvent;
        const node::NodeReport event = node::simulate_node(day.trace, cfg);
        const double gap = worst_gap(fixed, event);
        if (gap > kRelBound && !listed(kKnownBreaks, name)) {
          ADD_FAILURE() << "new break \"" << name << "\": worst energy gap " << gap;
        }
        if (!(gap > kRelBound) && listed(kKnownBreaks, name)) {
          ADD_FAILURE() << "listed break \"" << name << "\" now holds (worst energy gap " << gap
                        << "): delete its line from kKnownBreaks";
        }
      }
    }
  }
}

TEST_P(ContractRatchet, OutdoorColdStartRunsOrIsListed) {
  const std::string law = GetParam();
  for (const node::Stepper stepper : {node::Stepper::kFixed, node::Stepper::kEvent}) {
    const std::string name = cold_start_name(law, stepper);
    node::NodeConfig cfg = config_for(law);
    cfg.coldstart = power::ColdStartCircuit::Params{};
    cfg.storage.initial_voltage = 0.0;
    cfg.stepper = stepper;
    std::string error;
    try {
      (void)node::simulate_node(days()[1].trace, cfg);
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty() && !listed(kKnownThrows, name)) {
      ADD_FAILURE() << "new throw \"" << name << "\": " << error;
    }
    if (error.empty() && listed(kKnownThrows, name)) {
      ADD_FAILURE() << "listed throw \"" << name << "\" now runs: delete its line from "
                    << "kKnownThrows";
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string out = info.param;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Roster, ContractRatchet, ::testing::ValuesIn(kLaws), param_name);

TEST(ContractRatchetLists, NameRosterPairsOnce) {
  // The roster tests only look names up, so a misspelt or repeated
  // entry would sit in a list unnoticed.
  std::vector<std::string> pairs;
  std::vector<std::string> cold_starts;
  for (const std::string law : kLaws) {
    for (const Day& day : days()) {
      for (const double lux_scale : kScales) {
        for (const double store_v : kStores) {
          pairs.push_back(pair_name(law, day.name, lux_scale, store_v));
        }
      }
    }
    for (const node::Stepper stepper : {node::Stepper::kFixed, node::Stepper::kEvent}) {
      cold_starts.push_back(cold_start_name(law, stepper));
    }
  }
  ASSERT_EQ(pairs.size(), 240u);
  for (const auto& [list, roster] : {std::pair{&kKnownBreaks, &pairs},
                                     std::pair{&kKnownThrows, &cold_starts}}) {
    for (const std::string& name : *list) {
      EXPECT_TRUE(listed(*roster, name)) << "not a roster name: " << name;
      EXPECT_EQ(std::count(list->begin(), list->end(), name), 1) << name;
    }
  }
}

}  // namespace
}  // namespace focv
