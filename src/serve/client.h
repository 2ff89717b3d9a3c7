#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "scenario/spec.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace cloudrepro::serve {

/// A request exceeded its wall-clock budget (connection made but the peer
/// never delivered). Distinct from transport loss so the CLI can map it to
/// the retryable exit code.
class FetchTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Blocking request/response client over any Transport: `cloudrepro fetch`
/// and `cloudrepro work` over a TCP socket, and the tests over in-memory
/// pipes. One request at a time; the transport's
/// wait hooks park the thread between partial reads/writes — bounded by
/// the request deadline, so a hung peer surfaces as FetchTimeout instead
/// of an unbounded block.
class FetchClient {
 public:
  struct Options {
    /// Total wall-clock budget per request. Generous by default: a GET for
    /// an uncached scenario legitimately waits for a full campaign.
    std::chrono::milliseconds timeout{10 * 60 * 1000};
    /// Response frames above this are a protocol failure (responses embed
    /// whole summaries, so the bound is much larger than the server's
    /// request-side bound).
    std::size_t max_frame_bytes = 64u << 20;
  };

  explicit FetchClient(std::unique_ptr<Transport> transport)
      : FetchClient(std::move(transport), Options{}) {}
  FetchClient(std::unique_ptr<Transport> transport, Options options);

  Response get(const scenario::ScenarioSpec& spec,
               std::optional<std::uint64_t> seed = std::nullopt);
  Response get_by_name(std::string_view name,
                       std::optional<std::uint64_t> seed = std::nullopt);
  Response get_by_hash(std::string_view hash, std::uint64_t seed);
  Response list();
  Response stats();

  /// Sends one raw frame (newline appended) and returns the parsed reply.
  /// Throws FetchTimeout past the deadline, std::runtime_error on transport
  /// loss, ProtocolError on an unparseable reply.
  Response request(const std::string& frame);

 private:
  using Deadline = std::chrono::steady_clock::time_point;
  void write_all(std::string_view data, Deadline deadline);
  std::string read_frame(Deadline deadline);

  std::unique_ptr<Transport> transport_;
  FrameDecoder decoder_;
  Options options_;
};

}  // namespace cloudrepro::serve
