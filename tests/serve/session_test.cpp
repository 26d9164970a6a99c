// SessionState under concurrent sizing traffic. Each environment's
// SizingContext keeps recorded controller tapes that every worker shares:
// concurrent first requests race to record a tape, later ones replay it,
// and sweeps naming more controllers than the memo holds evict while
// others read. Every response must still equal a serial session's.
#include "serve/session.hpp"

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.hpp"

namespace focv::serve {
namespace {

std::vector<std::string> mixed_requests() {
  std::vector<std::string> out;
  for (const char* env : {"office", "office_sunday", "semi_mobile", "outdoor"}) {
    for (const char* spec : {"focv", "fixed", "pilot", "focv[min_lux=0lux]"}) {
      for (const char* period : {"60", "600"}) {
        out.push_back(std::string(R"({"op":"sizing","env":")") + env + R"(","spec":")" + spec +
                      R"(","report_period_s":)" + period + "}");
      }
    }
    // Nine tape keys in one environment: more than a context keeps.
    out.push_back(std::string(R"({"op":"sweep","env":")") + env +
                  R"(","report_period_s":300,"specs":["focv","fixed","pilot","photo",)"
                  R"("focv[k=0.61]","fixed[v=2.9]","pilot[min_lux=0lux]",)"
                  R"("photo[min_lux=0lux]","focv[hold=30s]"]})");
  }
  return out;
}

std::string compute(SessionState& session, const std::string& payload) {
  Request request;
  std::string error;
  EXPECT_TRUE(parse_request(payload, request, error)) << error;
  const ComputeResult result = session.compute(request);
  EXPECT_TRUE(result.ok) << payload << ": " << result.message;
  return result.result_json;
}

TEST(ServeSession, ConcurrentSizingAndSweepMatchSerial) {
  const std::vector<std::string> requests = mixed_requests();
  std::vector<std::string> serial;
  {
    SessionState session;
    for (const std::string& payload : requests) serial.push_back(compute(session, payload));
  }

  // Four threads each ask every request, starting a quarter apart, so
  // first touches of one environment and spec overlap.
  constexpr std::size_t kThreads = 4;
  SessionState shared;
  std::vector<std::vector<std::string>> answers(kThreads,
                                                std::vector<std::string>(requests.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < requests.size(); ++k) {
        const std::size_t i = (k + t * requests.size() / kThreads) % requests.size();
        answers[t][i] = compute(shared, requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(answers[t][i], serial[i]) << "thread " << t << ": " << requests[i];
    }
  }
}

}  // namespace
}  // namespace focv::serve
