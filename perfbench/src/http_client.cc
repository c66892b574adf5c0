#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace perfbench {

HttpClient::HttpClient(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
  }
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

int HttpClient::Send(const std::string& request_bytes, std::string* body) {
  if (fd_ < 0) return 0;
  size_t sent = 0;
  while (sent < request_bytes.size()) {
    ssize_t n = ::send(fd_, request_bytes.data() + sent,
                       request_bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return 0;
    }
    sent += static_cast<size_t>(n);
  }
  while (true) {
    size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      head_end += 4;
      size_t body_len = 0;
      size_t cl = buffer_.find("Content-Length:");
      if (cl != std::string::npos && cl < head_end) {
        body_len = static_cast<size_t>(
            std::strtoull(buffer_.c_str() + cl + 15, nullptr, 10));
      }
      if (buffer_.size() >= head_end + body_len) {
        int code = buffer_.size() > 12 && buffer_.compare(0, 5, "HTTP/") == 0
                       ? std::atoi(buffer_.c_str() + 9)
                       : 0;
        body->assign(buffer_, head_end, body_len);
        buffer_.erase(0, head_end + body_len);
        return code;
      }
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return 0;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string HttpClient::Post(const std::string& path,
                             const std::string& body) {
  return "POST " + path +
         " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string HttpClient::Get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

}  // namespace perfbench
