// require()/ensure() contract: the exception type, and what() equal to
// the message byte for byte, whatever form the message is passed in.
#include "common/require.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace focv {
namespace {

template <class Error, class F>
std::string what_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an exception";
  return {};
}

TEST(Require, PassingChecksDoNotThrow) {
  EXPECT_NO_THROW(require(true, "unused message"));
  EXPECT_NO_THROW(ensure(true, std::string("unused message")));
}

TEST(Require, ThrowsPreconditionErrorWithTheMessage) {
  EXPECT_EQ(what_of<PreconditionError>([] { require(false, "literal message past 15 chars"); }),
            "literal message past 15 chars");
  const std::string owned = "an owned std::string message";
  EXPECT_EQ(what_of<PreconditionError>([&] { require(false, owned); }), owned);
  const std::string name = "office";
  EXPECT_EQ(what_of<PreconditionError>(
                [&] { require(false, "fleet: environment '" + name + "' is bad"); }),
            "fleet: environment 'office' is bad");
}

TEST(Require, EnsureThrowsInvariantErrorWithTheMessage) {
  EXPECT_EQ(what_of<InvariantError>([] { ensure(false, "short"); }), "short");
  const std::string owned = "an owned std::string invariant";
  EXPECT_EQ(what_of<InvariantError>([&] { ensure(false, owned); }), owned);
  EXPECT_EQ(what_of<InvariantError>([] { ensure(false, std::string("a") + "b" + "c"); }), "abc");
}

TEST(Require, ErrorsKeepTheirStandardBases) {
  EXPECT_THROW(require(false, "x"), std::invalid_argument);
  EXPECT_THROW(ensure(false, "x"), std::logic_error);
}

TEST(Require, MessageViewNeedNotBeNulTerminated) {
  const std::string_view view = std::string_view("prefix-and-tail").substr(0, 6);
  EXPECT_EQ(what_of<PreconditionError>([&] { require(false, view); }), "prefix");
}

}  // namespace
}  // namespace focv
