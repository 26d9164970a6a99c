// End-to-end tests of the focv-serve daemon over real loopback sockets:
// the byte-determinism contract across worker counts and batching modes,
// single-flight environment warm-up, overload shedding, deadline expiry
// (and the serve.deadline_storm anomaly), and graceful drain on stop().
#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace focv::serve {
namespace {

/// Start a server on an ephemeral port or fail the test.
std::unique_ptr<Server> start_server(ServerOptions options) {
  auto server = std::make_unique<Server>(std::move(options));
  std::string error;
  EXPECT_TRUE(server->start(error)) << error;
  return server;
}

std::string ask(std::uint16_t port, const std::string& request) {
  Client client;
  std::string error;
  EXPECT_TRUE(client.connect(port, error)) << error;
  std::string response;
  EXPECT_TRUE(client.request(request, response)) << request;
  return response;
}

std::string error_code(const std::string& response) {
  Json parsed;
  if (!Json::parse(response, parsed)) return "<unparseable>";
  const Json* err = parsed.find("error");
  return err != nullptr ? err->string_or("code", "") : "";
}

// The determinism contract: identical request JSON -> byte-identical
// response JSON, independent of worker count, batching, and cache state
// (cold compute vs cached replay). deadline_ms is excluded from the
// canonical identity, so a replay with a different deadline must also
// match byte-for-byte.
TEST(ServeServer, ByteDeterminismAcrossJobsAndBatching) {
  ServerOptions serial;
  serial.jobs = 1;
  serial.batching = false;
  ServerOptions parallel;
  parallel.jobs = 4;
  parallel.batching = true;
  parallel.max_batch = 4;
  auto server_a = start_server(serial);
  auto server_b = start_server(parallel);

  const std::vector<std::string> requests = {
      R"({"op":"ping","id":1})",
      R"({"op":"catalog","id":2})",
      R"({"op":"sizing","id":3,"env":"office"})",
      R"({"op":"sizing","id":4,"env":"office","spec":"fixed[vout=1.8]","report_period_s":120})",
      R"({"op":"sweep","id":5,"env":"office","specs":["focv","fixed"]})",
      R"({"op":"fleet","id":6,"nodes":32,"seed":7})",
      // Errors are part of the surface and equally deterministic.
      R"({"op":"sizing","id":7,"env":"attic"})",
      R"({"op":"sizing","id":8,"env":"office","spec":"focv[bogus=1]"})",
  };
  for (const std::string& request : requests) {
    const std::string a_cold = ask(server_a->port(), request);
    const std::string b_cold = ask(server_b->port(), request);
    EXPECT_EQ(a_cold, b_cold) << request;
    // Replay: the second answer comes from the response cache (or a
    // fresh compute for uncacheable errors) and must not differ.
    const std::string a_warm = ask(server_a->port(), request);
    EXPECT_EQ(a_cold, a_warm) << request;
  }

  // Same query, different deadline: deadline_ms is outside the
  // canonical identity, so the payload bytes must match.
  const std::string plain = ask(server_a->port(), R"({"op":"sizing","id":3,"env":"office"})");
  const std::string deadlined =
      ask(server_a->port(), R"({"op":"sizing","id":3,"env":"office","deadline_ms":60000})");
  EXPECT_EQ(plain, deadlined);
}

// Satellite: two (here eight) simultaneous first-queries for the same
// (spec, env) must not duplicate the CurveCache / PreparedTrace build
// or race — the env warms exactly once and everyone gets the same
// bytes.
TEST(ServeServer, ConcurrentColdWarmupIsSingleFlight) {
  ServerOptions options;
  options.jobs = 4;
  auto server = start_server(options);

  constexpr int kThreads = 8;
  std::vector<std::string> responses(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        responses[static_cast<std::size_t>(i)] =
            ask(server->port(), R"({"op":"sizing","id":9,"env":"semi_mobile"})");
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(responses[0], responses[static_cast<std::size_t>(i)]);
  }
  Json parsed;
  ASSERT_TRUE(Json::parse(responses[0], parsed)) << responses[0];
  EXPECT_TRUE(parsed.bool_or("ok", false)) << responses[0];
  EXPECT_EQ(server->session().warm_builds(), 1u);
}

// Admission control: with queue_depth=2 and a single busy worker, the
// third unanswered request in the system is shed with `overloaded`.
TEST(ServeServer, OverloadShedsBeyondQueueDepth) {
  ServerOptions options;
  options.jobs = 1;
  options.queue_depth = 2;
  options.session.enable_test_ops = true;
  auto server = start_server(options);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(server->port(), error)) << error;
  // Occupy the worker, then give the dispatcher time to hand it over so
  // the burst below races nothing.
  ASSERT_TRUE(client.send(R"({"op":"burn","id":0,"ms":400})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  constexpr int kBurst = 5;
  for (int i = 1; i <= kBurst; ++i) {
    ASSERT_TRUE(client.send(R"({"op":"burn","id":)" + std::to_string(i) + R"(,"ms":10})"));
  }
  int ok = 0;
  int overloaded = 0;
  std::string response;
  for (int i = 0; i < kBurst + 1; ++i) {
    ASSERT_TRUE(client.recv(response));
    Json parsed;
    ASSERT_TRUE(Json::parse(response, parsed)) << response;
    if (parsed.bool_or("ok", false)) {
      ++ok;
    } else {
      EXPECT_EQ(error_code(response), errc::kOverloaded) << response;
      ++overloaded;
    }
  }
  // Admitted: the 400 ms burn plus one of the burst; the rest shed.
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(overloaded, kBurst - 1);
}

// Deadline handling plus the flight-recorder satellite: requests whose
// deadline expired in the queue come back `deadline_exceeded`, and once
// storm_threshold of them land inside the window the server fires the
// serve.deadline_storm anomaly, which dumps the armed flight recorder.
TEST(ServeServer, DeadlineStormFiresAnomalyAndFlightDump) {
  obs::ScopedEnable telemetry;
  obs::arm_flight({/*capacity=*/64, /*path=*/"serve_storm_flight.json", /*max_dumps=*/8});
  const int dumps_before = obs::flight().dumps();

  ServerOptions options;
  options.jobs = 1;
  options.storm_threshold = 4;
  options.session.enable_test_ops = true;
  auto server = start_server(options);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(server->port(), error)) << error;
  // deadline_ms = 1e-4 (100 ns) is over before the dispatcher can ever
  // drain the queue, so every request expires deterministically.
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.send(R"({"op":"burn","id":)" + std::to_string(i) +
                            R"(,"ms":5,"deadline_ms":0.0001})"));
  }
  std::string response;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.recv(response));
    EXPECT_EQ(error_code(response), errc::kDeadlineExceeded) << response;
  }
  // Edge-triggered: one dump for the whole storm, not one per expiry.
  EXPECT_EQ(obs::flight().dumps() - dumps_before, 1);

  server->stop();
  obs::disarm_flight();
  obs::reset_all();
  std::remove("serve_storm_flight.json");
}

// Graceful shutdown: stop() drains admitted work — the in-flight burn
// still gets its response before the connection is torn down — and a
// stopped server accepts no new connections.
TEST(ServeServer, StopDrainsInFlightWork) {
  ServerOptions options;
  options.jobs = 1;
  options.session.enable_test_ops = true;
  auto server = start_server(options);
  const std::uint16_t port = server->port();

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect(port, error)) << error;
  ASSERT_TRUE(client.send(R"({"op":"burn","id":42,"ms":200})"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it be admitted

  server->stop();  // blocks until the queue and in-flight work drained

  std::string response;
  ASSERT_TRUE(client.recv(response));
  Json parsed;
  ASSERT_TRUE(Json::parse(response, parsed)) << response;
  EXPECT_TRUE(parsed.bool_or("ok", false)) << response;
  EXPECT_EQ(parsed.find("id")->dump(), "42");

  Client late;
  EXPECT_FALSE(late.connect(port, error));
}

// The shutdown op is loopback-trusted and off by default.
TEST(ServeServer, ShutdownOpGatedByOption) {
  auto server = start_server(ServerOptions{});
  const std::string refused = ask(server->port(), R"({"op":"shutdown","id":1})");
  EXPECT_EQ(error_code(refused), errc::kBadRequest) << refused;
  EXPECT_FALSE(server->stop_requested());

  ServerOptions trusted;
  trusted.allow_shutdown_op = true;
  auto server2 = start_server(trusted);
  const std::string accepted = ask(server2->port(), R"({"op":"shutdown","id":1})");
  Json parsed;
  ASSERT_TRUE(Json::parse(accepted, parsed)) << accepted;
  EXPECT_TRUE(parsed.bool_or("ok", false)) << accepted;
  EXPECT_TRUE(server2->stop_requested());
  server2->stop();
}

}  // namespace
}  // namespace focv::serve
