#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace odonn::obs {

namespace {

/// Worker threads rendering responses. Scrapes are cheap; two keep a slow
/// reader from blocking the next scrape.
constexpr std::size_t kHandlerThreads = 2;

/// A request head past this many bytes gets a 400: a scrape never needs
/// more than a request line and a few headers.
constexpr std::size_t kMaxRequestBytes = 8192;

/// Reason phrases for the statuses this plane actually emits.
const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

/// Per-connection socket timeouts so a stalled peer can never wedge a
/// worker past a few seconds.
void set_socket_timeouts(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer gone; nothing sensible to do on a scrape
    sent += static_cast<std::size_t>(n);
  }
}

void write_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  write_all(fd, head + response.body);
}

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(const std::string& path, Handler handler) {
  ODONN_CHECK(!path.empty() && path.front() == '/',
              "http: route path must start with '/'");
  ODONN_CHECK(handler != nullptr, "http: null handler");
  MutexLock lock(mutex_);
  handlers_[path] = std::move(handler);
}

void HttpServer::start() {
  ODONN_CHECK(!running(), "http: start() called twice");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("http: socket() failed");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw ConfigError("http: invalid bind address '" + options_.bind_address +
                      "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw IoError("http: cannot bind " + options_.bind_address + ":" +
                  std::to_string(options_.port) + " (" +
                  std::strerror(err) + ")");
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("http: listen() failed (" + std::string(std::strerror(err)) +
                  ")");
  }

  // Resolve the actual port (meaningful when options_.port == 0).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    throw IoError("http: getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  {
    MutexLock lock(mutex_);
    stopping_ = false;
    served_ = 0;
  }
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(kHandlerThreads);
  for (std::size_t i = 0; i < kHandlerThreads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void HttpServer::stop() {
  if (!running()) return;
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

std::uint64_t HttpServer::requests_served() const {
  MutexLock lock(mutex_);
  return served_;
}

void HttpServer::accept_loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
    }
    // Short poll so the stop flag is observed within ~100ms without
    // resorting to signals or a self-pipe.
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    set_socket_timeouts(client, 5);
    {
      MutexLock lock(mutex_);
      if (stopping_) {
        // Shutting down: refuse politely rather than strand the peer.
        ::close(client);
        return;
      }
      pending_.push_back(client);
    }
    cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mutex_);
      cv_.wait(mutex_, [this]() ODONN_REQUIRES(mutex_) {
        return stopping_ || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping and fully drained
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  // Read the request head (we never accept bodies on this plane).
  std::string head;
  char buffer[1024];
  while (head.size() < kMaxRequestBytes &&
         head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    head.append(buffer, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  const std::size_t line_end = head.find("\r\n");
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : head.find(' ', sp1 + 1);
  if (line_end == std::string::npos || sp1 == std::string::npos ||
      sp2 == std::string::npos || sp2 > line_end) {
    ODONN_OBS_COUNT("obs.http.errors", 1);
    response.status = 400;
    response.body = "malformed request\n";
  } else {
    HttpRequest request;
    request.method = head.substr(0, sp1);
    request.target = head.substr(sp1 + 1, sp2 - sp1 - 1);
    request.path = request.target.substr(0, request.target.find('?'));
    response = dispatch(request);
  }
  // Count BEFORE the response bytes leave: a client that has received its
  // response must already be visible in requests_served() (tests join
  // their clients and then assert the exact count).
  {
    MutexLock lock(mutex_);
    ++served_;
  }
  write_response(fd, response);
  ::close(fd);
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  // Count the scrape BEFORE the handler renders: the /metrics body a
  // scraper receives then already includes its own request, making it
  // byte-identical to a to_text() call taken right after (tests assert
  // this equality).
  ODONN_OBS_COUNT("obs.http.requests", 1);

  HttpResponse response;
  if (request.method != "GET") {
    ODONN_OBS_COUNT("obs.http.errors", 1);
    response.status = 405;
    response.body = "only GET is supported\n";
    return response;
  }
  Handler handler;
  {
    MutexLock lock(mutex_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    ODONN_OBS_COUNT("obs.http.errors", 1);
    response.status = 404;
    response.body = "no route for " + request.path + "\n";
    return response;
  }
  try {
    return handler(request);
  } catch (const std::exception& e) {
    ODONN_OBS_COUNT("obs.http.errors", 1);
    response.status = 500;
    response.body = std::string("handler failed: ") + e.what() + "\n";
    return response;
  } catch (...) {
    ODONN_OBS_COUNT("obs.http.errors", 1);
    response.status = 500;
    response.body = "handler failed\n";
    return response;
  }
}

void register_obs_routes(HttpServer& server, ObsRouteOptions options) {
  server.handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = MetricsRegistry::global().to_text();
    return response;
  });
  server.handle("/metrics.json", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = export_json();
    return response;
  });
  server.handle("/spans", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = spans_json();
    return response;
  });
  server.handle("/healthz", [extra = std::move(options.health_extra)](
                                const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    std::string body = "{\"status\": \"ok\", \"build\": " + build_info_json() +
                       ", \"uptime_s\": " +
                       format_double(process_uptime_seconds());
    if (extra) {
      const std::string fragment = extra();
      if (!fragment.empty()) body += ", " + fragment;
    }
    body += "}";
    response.body = std::move(body);
    return response;
  });
}

HttpGetResult http_get(const std::string& host, std::uint16_t port,
                       const std::string& path, int timeout_ms,
                       const std::string& method) {
  HttpGetResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result.error = "socket() failed";
    return result;
  }
  const int timeout_s = timeout_ms <= 0 ? 1 : (timeout_ms + 999) / 1000;
  set_socket_timeouts(fd, timeout_s);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    result.error = "invalid host '" + host + "' (IPv4 literal required)";
    return result;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    result.error = "connect failed (" + std::string(std::strerror(err)) + ")";
    return result;
  }

  const std::string request = method + " " + path + " HTTP/1.1\r\nHost: " +
                              host + "\r\nConnection: close\r\n\r\n";
  write_all(fd, request);

  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 <code> ...\r\n...\r\n\r\n<body>"
  const std::size_t sp = raw.find(' ');
  const std::size_t split = raw.find("\r\n\r\n");
  if (sp == std::string::npos || split == std::string::npos ||
      raw.compare(0, 5, "HTTP/") != 0) {
    result.error = raw.empty() ? "empty response" : "malformed response";
    return result;
  }
  result.status = std::atoi(raw.c_str() + sp + 1);
  result.body = raw.substr(split + 4);
  result.ok = result.status != 0;
  return result;
}

}  // namespace odonn::obs
