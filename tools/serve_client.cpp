// focv-serve client CLI: one request per invocation, response JSON on
// stdout.
//
//   serve_client --port N ping
//   serve_client --port N catalog
//   serve_client --port N sizing --env office --spec "focv[k=0.6]"
//   serve_client --port N sim    --env outdoor --spec pando
//   serve_client --port N fleet  --nodes 500 --seed 7
//   serve_client --port N stats
//   serve_client --port N shutdown
//   serve_client --port N raw '{"op":"sizing","env":"office"}'
//
// Exit status: 0 on ok:true, 3 on a structured server error, 1/2 on
// transport/usage problems.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "serve/client.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: serve_client --port N <op> [--env NAME] [--spec SPEC]\n"
               "                    [--period S] [--nodes N] [--seed N]\n"
               "                    [--deadline-ms X] | raw '<request json>'\n"
               "ops: ping catalog sim sizing sweep fleet stats burn shutdown raw\n");
  std::exit(code);
}

const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "serve_client: %s needs a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  using focv::Json;
  int port = 0;
  std::string op;
  std::string raw;
  std::vector<std::string> specs;  // --spec is repeatable (sweep)
  Json body = Json::object();
  body.set("id", Json::number(1));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--port") {
      port = std::atoi(flag_value(argc, argv, i));
    } else if (arg == "--env") {
      body.set("env", Json::string(flag_value(argc, argv, i)));
    } else if (arg == "--spec") {
      specs.emplace_back(flag_value(argc, argv, i));
    } else if (arg == "--period") {
      body.set("report_period_s", Json::number(std::atof(flag_value(argc, argv, i))));
    } else if (arg == "--nodes") {
      body.set("nodes", Json::number(std::atof(flag_value(argc, argv, i))));
    } else if (arg == "--seed") {
      body.set("seed", Json::number(std::atof(flag_value(argc, argv, i))));
    } else if (arg == "--deadline-ms") {
      body.set("deadline_ms", Json::number(std::atof(flag_value(argc, argv, i))));
    } else if (op.empty() && arg[0] != '-') {
      op = arg;
    } else if (op == "raw" && raw.empty() && arg[0] != '-') {
      raw = arg;
    } else {
      std::fprintf(stderr, "serve_client: unexpected argument %s\n", argv[i]);
      usage(2);
    }
  }
  if (port <= 0 || op.empty()) usage(2);

  std::string request;
  if (op == "raw") {
    if (raw.empty()) usage(2);
    request = raw;
  } else {
    body.set("op", Json::string(op));
    if (op == "sweep") {
      Json list = Json::array();
      for (const std::string& spec : specs) list.push_back(Json::string(spec));
      body.set("specs", std::move(list));
    } else if (!specs.empty()) {
      body.set("spec", Json::string(specs.back()));
    }
    request = body.dump();
  }

  focv::serve::Client client;
  std::string error;
  if (!client.connect(static_cast<std::uint16_t>(port), error)) {
    std::fprintf(stderr, "serve_client: %s\n", error.c_str());
    return 1;
  }
  std::string response;
  if (!client.request(request, response)) {
    std::fprintf(stderr, "serve_client: transport error (is the daemon running?)\n");
    return 1;
  }
  std::printf("%s\n", response.c_str());
  Json parsed;
  if (Json::parse(response, parsed) && !parsed.bool_or("ok", false)) return 3;
  return 0;
}
