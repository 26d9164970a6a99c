#include <sstream>

#include <gtest/gtest.h>

#include "common/ascii_plot.hpp"
#include "common/require.hpp"
#include "common/table.hpp"

namespace focv {
namespace {

TEST(ConsoleTable, RendersAlignedBox) {
  ConsoleTable table({"Name", "Value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"beta-long-name", "2"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("beta-long-name"), std::string::npos);
  // Box rules top, header separator, bottom.
  int rules = 0;
  for (std::size_t pos = out.find("+--"); pos != std::string::npos;
       pos = out.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 3);
}

TEST(ConsoleTable, RejectsWrongWidthRow) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
}

TEST(ConsoleTable, NumFormatsPrecision) {
  EXPECT_EQ(ConsoleTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::num(5.0, 0), "5");
}

TEST(AsciiPlot, RendersSeriesWithinFrame) {
  std::vector<double> x, y;
  for (int i = 0; i <= 50; ++i) {
    x.push_back(i * 0.1);
    y.push_back(i * 0.2);
  }
  std::ostringstream os;
  AsciiPlotOptions options;
  options.width = 40;
  options.height = 10;
  options.title = "T";
  ascii_plot(os, {{x, y, '*', "ramp"}}, options);
  const std::string out = os.str();
  EXPECT_NE(out.find('T'), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("ramp"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesSafe) {
  std::ostringstream os;
  ascii_plot(os, {});
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(AsciiPlot, ConstantSeriesSafe) {
  std::ostringstream os;
  ascii_plot(os, {{{0.0, 1.0}, {2.0, 2.0}, '#', ""}});
  EXPECT_NE(os.str().find('#'), std::string::npos);
}

TEST(AsciiPlot, RejectsMismatchedSeries) {
  std::ostringstream os;
  EXPECT_THROW(ascii_plot(os, {{{0.0, 1.0}, {2.0}, '*', ""}}), PreconditionError);
}

TEST(AsciiPlot, RejectsTinyPlotArea) {
  std::ostringstream os;
  AsciiPlotOptions options;
  options.width = 2;
  options.height = 2;
  EXPECT_THROW(ascii_plot(os, {{{0.0}, {1.0}, '*', ""}}, options), PreconditionError);
}

}  // namespace
}  // namespace focv
