// transport.hpp - duplex message endpoints over pluggable transports.
//
// TDP daemons never touch sockets directly; they speak Message over an
// Endpoint. Two transports implement the interface:
//   * InProcTransport  - lock-protected queues inside one process; used by
//     unit tests and by the virtual-cluster benches (address scheme
//     "inproc://name").
//   * TcpTransport     - real localhost TCP with length-prefixed framing;
//     used by the examples and the integration tests (address scheme
//     "host:port").
//
// Every Endpoint exposes readable_fd(): a descriptor that becomes readable
// when a message may be pending. This is the mechanism Section 3.3 of the
// paper builds tdp_service_event on: "asynchronous events simply cause
// activity on a descriptor, so the daemon would return from the poll".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "util/status.hpp"

namespace tdp::net {

/// One side of an established, bidirectional message channel.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Sends a message; blocks only for transient flow control.
  virtual Status send(const Message& msg) = 0;

  /// Move-aware send: transports that queue Message objects (inproc) take
  /// ownership without copying. Default forwards to the copying overload.
  virtual Status send(Message&& msg) { return send(msg); }

  /// Receives the next message. timeout_ms semantics:
  ///   <0 block until a message or disconnect, 0 poll, >0 bounded wait.
  /// Returns kTimeout when the deadline passes, kConnectionError when the
  /// peer is gone and no queued message remains.
  virtual Result<Message> receive(int timeout_ms) = 0;

  /// Zero-copy receive: parses the next frame in place when the transport
  /// buffers encoded bytes (TCP), falling back to receive()+adopt for
  /// transports that queue Message objects. `view` is valid until the next
  /// receive()/receive_view()/close() on this endpoint; reusing one view
  /// across calls amortizes its field-table allocation to zero. Single
  /// reader per endpoint assumed (same as receive()).
  virtual Status receive_view(int timeout_ms, MessageView* view) {
    auto msg = receive(timeout_ms);
    if (!msg.is_ok()) return msg.status();
    view->adopt(std::move(msg).value());
    return Status::ok();
  }

  /// Relays one already-encoded frame (length prefix included) without
  /// re-encoding. Byte-oriented transports (TCP) write the buffer verbatim;
  /// the default decodes and forwards through send() so message-queue
  /// transports (inproc) stay correct. This is the proxy fast path: a relay
  /// moves frames without touching the field table.
  virtual Status send_frame(const std::uint8_t* data, std::size_t size) {
    auto msg = Message::decode(data, size);
    if (!msg.is_ok()) return msg.status();
    return send(std::move(msg).value());
  }

  /// Receives the next frame as raw bytes (length prefix included) into
  /// `frame`, reusing its capacity. The default re-encodes a received
  /// Message. Same timeout semantics and single-reader assumption as
  /// receive().
  virtual Status receive_frame(int timeout_ms, std::vector<std::uint8_t>* frame) {
    auto msg = receive(timeout_ms);
    if (!msg.is_ok()) return msg.status();
    msg.value().encode_into(*frame);
    return Status::ok();
  }

  /// Receives one or more already-encoded frames into `frames`: blocks for
  /// the first (same timeout semantics as receive()), then greedily appends
  /// every further complete frame the transport has already buffered - no
  /// extra wait - so a relay can forward a pipelined burst with one write
  /// instead of one per frame. Default: exactly one frame.
  virtual Status receive_frames(int timeout_ms, std::vector<std::uint8_t>* frames) {
    return receive_frame(timeout_ms, frames);
  }

  /// Descriptor that poll()s readable when receive() would not block
  /// (level-triggered), or -1 if the transport cannot provide one.
  [[nodiscard]] virtual int readable_fd() const = 0;

  [[nodiscard]] virtual bool is_open() const = 0;
  virtual void close() = 0;

  /// Address of the remote side, for diagnostics.
  [[nodiscard]] virtual std::string peer_address() const = 0;
};

/// A bound, accepting server socket.
class Listener {
 public:
  virtual ~Listener() = default;

  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one inbound connection (same timeout semantics as receive).
  virtual Result<std::unique_ptr<Endpoint>> accept(int timeout_ms) = 0;

  /// The concrete address clients should connect to. For TCP listeners
  /// bound to port 0 this reports the kernel-assigned port.
  [[nodiscard]] virtual std::string address() const = 0;

  /// Descriptor readable when accept() would not block, or -1.
  [[nodiscard]] virtual int readable_fd() const = 0;

  virtual void close() = 0;
};

/// Factory for listeners and client connections.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Listener>> listen(const std::string& address) = 0;
  virtual Result<std::unique_ptr<Endpoint>> connect(const std::string& address) = 0;
};

}  // namespace tdp::net
