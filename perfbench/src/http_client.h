#pragma once

#include <cstdint>
#include <string>

/// \file http_client.h
/// A minimal blocking keep-alive HTTP/1.1 client for one loopback
/// connection: enough to send the API's requests and read
/// Content-Length-framed responses.

namespace perfbench {

class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and reads its response. Returns the HTTP
  /// status, or 0 on a transport failure (the connection is then
  /// closed and every later call fails too).
  int Send(const std::string& request_bytes, std::string* body);

  /// The bytes of a POST with a JSON body, as sent on the wire.
  static std::string Post(const std::string& path, const std::string& body);
  static std::string Get(const std::string& path);

 private:
  void Close();

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
