// HttpServer — dependency-free observability HTTP plane (POSIX sockets).
//
// A deliberately small HTTP/1.1 server for scraping, not serving: GET-only,
// Connection: close on every response, one accept thread plus a small
// handler pool. It exists so a live serve process can expose /metrics,
// /metrics.json, /healthz, /snapshot and /spans to curl / Prometheus
// without pulling in any HTTP library the container doesn't have.
//
// Lifecycle: construct with options, register handlers, start(), stop().
// start() binds and begins accepting; port 0 binds an ephemeral port and
// port() reports the resolved one (how tests avoid collisions). stop() is
// graceful: the accept thread closes the listener, workers finish every
// connection already accepted, then exit. The destructor calls stop().
//
// Determinism contract: the HTTP plane only READS observability state —
// handlers render registry/trace/snapshot text. Serving scrapes never
// feeds back into computation, so prediction digests are bitwise
// identical with the server on or off (scripts/check.sh asserts this).
//
// Instrumentation: every accepted request bumps obs.http.requests BEFORE
// the handler renders, so the /metrics body it returns already includes
// the scrape itself and is byte-identical to a to_text() call taken after
// it. Non-200 outcomes (404/405/500, parse failures) also bump
// obs.http.errors.
//
// Thread safety: handle() may be called from any thread before or after
// start(); start()/stop() are not reentrant.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"

namespace odonn::obs {

/// Parsed request line of an accepted connection.
struct HttpRequest {
  std::string method;  ///< e.g. "GET"
  std::string target;  ///< raw request target, query string included
  std::string path;    ///< target with any "?query" suffix stripped
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

struct HttpServerOptions {
  /// Interface to bind. Loopback by default: this is an operator plane,
  /// not a public service.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (resolved via port()).
  std::uint16_t port = 0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path` (e.g. "/metrics").
  /// Re-registering a path replaces the handler.
  void handle(const std::string& path, Handler handler);

  /// Binds, listens and starts the accept thread + worker pool. Throws
  /// IoError when the bind address/port is unavailable.
  void start();

  /// Graceful shutdown: stops accepting, drains already-accepted
  /// connections, joins all threads. Idempotent; called by the destructor.
  void stop();

  /// Resolved listening port (the ephemeral port when options.port was 0).
  /// Valid after start().
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Requests fully served (any status) since start().
  std::uint64_t requests_served() const;

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  HttpResponse dispatch(const HttpRequest& request);

  HttpServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Atomic so running() is safe from any thread while start()/stop() run
  /// on the controlling thread (start()/stop() themselves are not
  /// reentrant).
  std::atomic<bool> running_{false};

  mutable Mutex mutex_;
  CondVar cv_;
  /// Accepted fds awaiting a worker.
  std::deque<int> pending_ ODONN_GUARDED_BY(mutex_);
  bool stopping_ ODONN_GUARDED_BY(mutex_) = false;
  std::uint64_t served_ ODONN_GUARDED_BY(mutex_) = 0;

  std::unordered_map<std::string, Handler> handlers_ ODONN_GUARDED_BY(mutex_);

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// Extra wiring for register_obs_routes.
struct ObsRouteOptions {
  /// Extra JSON fields spliced into the /healthz object (must be either
  /// empty or a fragment like `"replicas": 2, "draining": false`).
  std::function<std::string()> health_extra;
};

/// Registers the standard observability routes on `server`:
///   GET /metrics       Prometheus text (MetricsRegistry::to_text(),
///                      content type "text/plain; version=0.0.4;
///                      charset=utf-8"; body byte-identical to to_text())
///   GET /metrics.json  obs::export_json()
///   GET /healthz       {"status": "ok", "build": <build_info_json()>,
///                      "uptime_s": N[, <health_extra fragment>]}
///   GET /spans         obs::spans_json()
void register_obs_routes(HttpServer& server, ObsRouteOptions options = {});

/// Minimal blocking HTTP/1.1 client for the CLI smoke tool and tests (no
/// curl dependency in the container). Connects to host:port, sends one
/// `method path` request, reads until the peer closes.
struct HttpGetResult {
  bool ok = false;    ///< transport-level success (response parsed)
  int status = 0;     ///< HTTP status code when ok
  std::string body;   ///< response body when ok
  std::string error;  ///< transport error description when !ok
};
HttpGetResult http_get(const std::string& host, std::uint16_t port,
                       const std::string& path, int timeout_ms = 5000,
                       const std::string& method = "GET");

}  // namespace odonn::obs
