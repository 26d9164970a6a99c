// focv-serve client: blocking request/response plus explicit pipelining
// (send N frames, then collect N responses) for the load generator and
// the CLI helper. One Client = one connection; not thread-safe — share
// nothing, open one Client per thread.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace focv::serve {

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect to a focv-serve daemon on 127.0.0.1:`port`.
  bool connect(std::uint16_t port, std::string& error);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Fire one frame without waiting (pipelining). False on I/O error.
  bool send(const std::string& request_json);
  /// Collect the next response frame. False on EOF / I/O error.
  bool recv(std::string& response_json);
  /// send + recv. Valid only when no earlier sends are outstanding.
  bool request(const std::string& request_json, std::string& response_json);

  /// request() + parse; false when the transport fails, the response is
  /// not valid JSON, or (ok_required) the server answered ok:false.
  bool call(const std::string& request_json, Json& response, std::string& error,
            bool ok_required = true);

 private:
  int fd_ = -1;
};

}  // namespace focv::serve
