#include "net/inproc.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>

#include "util/string_util.hpp"

namespace tdp::net {

namespace detail {

/// A bounded-unbounded MPSC message queue with a self-pipe mirroring its
/// fill level, so poll() on the read end is level-triggered w.r.t. queue
/// non-emptiness.
class InProcQueue {
 public:
  InProcQueue() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      pipe_r_ = fds[0];
      pipe_w_ = fds[1];
      ::fcntl(pipe_r_, F_SETFL, O_NONBLOCK);
      ::fcntl(pipe_w_, F_SETFL, O_NONBLOCK);
      ::fcntl(pipe_r_, F_SETFD, FD_CLOEXEC);
      ::fcntl(pipe_w_, F_SETFD, FD_CLOEXEC);
    }
  }

  ~InProcQueue() {
    if (pipe_r_ >= 0) ::close(pipe_r_);
    if (pipe_w_ >= 0) ::close(pipe_w_);
  }

  InProcQueue(const InProcQueue&) = delete;
  InProcQueue& operator=(const InProcQueue&) = delete;

  void push(Message msg) {
    bool signal;
    {
      LockGuard lock(mutex_);
      queue_.push_back(std::move(msg));
      signal = fd_exported_;
    }
    if (signal) signal_pipe();
    cv_.notify_one();
  }

  /// Pops the next message. timeout_ms: <0 block, 0 poll, >0 bounded.
  Result<Message> pop(int timeout_ms) {
    LockGuard lock(mutex_);
    auto ready = [this]() TDP_REQUIRES(mutex_) { return !queue_.empty() || closed_; };
    if (timeout_ms < 0) {
      cv_.wait(lock, ready);
    } else if (timeout_ms > 0) {
      if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
        return make_error(ErrorCode::kTimeout, "inproc receive timed out");
      }
    }
    if (!queue_.empty()) {
      Message msg = std::move(queue_.front());
      queue_.pop_front();
      if (fd_exported_) drain_pipe_one();
      return msg;
    }
    if (closed_) {
      return make_error(ErrorCode::kConnectionError, "inproc peer closed");
    }
    return make_error(ErrorCode::kTimeout, "inproc queue empty");
  }

  void close() {
    bool signal;
    {
      LockGuard lock(mutex_);
      if (closed_) return;
      closed_ = true;
      signal = fd_exported_;
    }
    if (signal) signal_pipe();  // wake fd-based pollers; not drained
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    LockGuard lock(mutex_);
    return closed_;
  }

  /// Exporting the descriptor switches the queue into fd-mirrored mode:
  /// from then on every push/close writes a pipe byte. Queues nobody polls
  /// (a blocking client's reply queue) never pay the two syscalls per
  /// message that keep the mirror level-triggered.
  [[nodiscard]] int read_fd() const {
    LockGuard lock(mutex_);
    if (!fd_exported_) {
      fd_exported_ = true;
      // Mirror the current fill level (plus the close marker) so the fd is
      // immediately level-consistent with the queue.
      std::size_t level = queue_.size() + (closed_ ? 1 : 0);
      for (std::size_t i = 0; i < level; ++i) signal_pipe();
    }
    return pipe_r_;
  }

 private:
  void signal_pipe() const {
    if (pipe_w_ >= 0) {
      const char byte = 'x';
      [[maybe_unused]] ssize_t n = ::write(pipe_w_, &byte, 1);
      // A full pipe is fine: poll already reports readable.
    }
  }

  void drain_pipe_one() const {
    if (pipe_r_ >= 0) {
      char byte;
      [[maybe_unused]] ssize_t n = ::read(pipe_r_, &byte, 1);
    }
  }

  CondVar cv_;
  mutable Mutex mutex_{"InProcQueue::mutex_"};
  std::deque<Message> queue_ TDP_GUARDED_BY(mutex_);
  bool closed_ TDP_GUARDED_BY(mutex_) = false;
  mutable bool fd_exported_ TDP_GUARDED_BY(mutex_) = false;

  int pipe_r_ = -1;  ///< immutable after the ctor
  int pipe_w_ = -1;  ///< immutable after the ctor
};

/// Shared state of one connection: two directed queues.
struct InProcChannel {
  InProcQueue client_to_server;
  InProcQueue server_to_client;
};

/// One endpoint view over a channel: sends into one queue, receives from
/// the other.
class InProcEndpoint final : public Endpoint {
 public:
  InProcEndpoint(std::shared_ptr<InProcChannel> channel, bool is_server,
                 std::string peer)
      : channel_(std::move(channel)), is_server_(is_server), peer_(std::move(peer)) {}

  ~InProcEndpoint() override { InProcEndpoint::close(); }

  using Endpoint::send;

  Status send(const Message& msg) override { return send(Message(msg)); }

  /// Move send: the queued message is handed to the peer without copying
  /// its field table — the inproc fast path.
  Status send(Message&& msg) override {
    if (closed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kConnectionError, "endpoint closed");
    }
    if (recv_queue().closed()) {
      return make_error(ErrorCode::kConnectionError, "peer closed");
    }
    send_queue().push(std::move(msg));
    return Status::ok();
  }

  Result<Message> receive(int timeout_ms) override {
    if (closed_.load(std::memory_order_acquire)) {
      return make_error(ErrorCode::kConnectionError, "endpoint closed");
    }
    return recv_queue().pop(timeout_ms);
  }

  [[nodiscard]] int readable_fd() const override { return recv_queue().read_fd(); }

  [[nodiscard]] bool is_open() const override {
    return !closed_.load(std::memory_order_acquire) && !recv_queue().closed();
  }

  void close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) return;
    // Closing both directions lets the peer observe disconnect after it
    // drains queued messages.
    channel_->client_to_server.close();
    channel_->server_to_client.close();
  }

  [[nodiscard]] std::string peer_address() const override { return peer_; }

 private:
  InProcQueue& send_queue() const {
    return is_server_ ? channel_->server_to_client : channel_->client_to_server;
  }
  InProcQueue& recv_queue() const {
    return is_server_ ? channel_->client_to_server : channel_->server_to_client;
  }

  std::shared_ptr<InProcChannel> channel_;
  bool is_server_;
  std::string peer_;
  std::atomic<bool> closed_{false};
};

/// Accept queue shared between the registry and the listener object.
class InProcListenerState {
 public:
  void enqueue(std::unique_ptr<Endpoint> endpoint) {
    {
      LockGuard lock(mutex_);
      pending_.push_back(std::move(endpoint));
    }
    signal_pipe();
    cv_.notify_one();
  }

  Result<std::unique_ptr<Endpoint>> dequeue(int timeout_ms) {
    LockGuard lock(mutex_);
    auto ready = [this]() TDP_REQUIRES(mutex_) { return !pending_.empty() || closed_; };
    if (timeout_ms < 0) {
      cv_.wait(lock, ready);
    } else if (timeout_ms > 0) {
      if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
        return make_error(ErrorCode::kTimeout, "accept timed out");
      }
    }
    if (!pending_.empty()) {
      auto endpoint = std::move(pending_.front());
      pending_.pop_front();
      drain_pipe_one();
      return endpoint;
    }
    if (closed_) return make_error(ErrorCode::kCancelled, "listener closed");
    return make_error(ErrorCode::kTimeout, "no pending connection");
  }

  void close() {
    {
      LockGuard lock(mutex_);
      closed_ = true;
    }
    signal_pipe();
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    LockGuard lock(mutex_);
    return closed_;
  }

  InProcListenerState() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) == 0) {
      pipe_r_ = fds[0];
      pipe_w_ = fds[1];
      ::fcntl(pipe_r_, F_SETFL, O_NONBLOCK);
      ::fcntl(pipe_w_, F_SETFL, O_NONBLOCK);
    }
  }

  ~InProcListenerState() {
    if (pipe_r_ >= 0) ::close(pipe_r_);
    if (pipe_w_ >= 0) ::close(pipe_w_);
  }

  [[nodiscard]] int read_fd() const noexcept { return pipe_r_; }

 private:
  void signal_pipe() {
    if (pipe_w_ >= 0) {
      const char byte = 'x';
      [[maybe_unused]] ssize_t n = ::write(pipe_w_, &byte, 1);
    }
  }
  void drain_pipe_one() {
    if (pipe_r_ >= 0) {
      char byte;
      [[maybe_unused]] ssize_t n = ::read(pipe_r_, &byte, 1);
    }
  }

  CondVar cv_;
  mutable Mutex mutex_{"InProcListenerState::mutex_"};
  std::deque<std::unique_ptr<Endpoint>> pending_ TDP_GUARDED_BY(mutex_);
  bool closed_ TDP_GUARDED_BY(mutex_) = false;

  int pipe_r_ = -1;  ///< immutable after the ctor
  int pipe_w_ = -1;  ///< immutable after the ctor
};

}  // namespace detail

namespace {

class InProcListener final : public Listener {
 public:
  InProcListener(std::shared_ptr<InProcTransport> transport,
                 std::shared_ptr<detail::InProcListenerState> state, std::string name)
      : transport_(std::move(transport)), state_(std::move(state)),
        name_(std::move(name)) {}

  ~InProcListener() override { InProcListener::close(); }

  Result<std::unique_ptr<Endpoint>> accept(int timeout_ms) override {
    return state_->dequeue(timeout_ms);
  }

  [[nodiscard]] std::string address() const override { return "inproc://" + name_; }

  [[nodiscard]] int readable_fd() const override { return state_->read_fd(); }

  void close() override {
    if (closed_) return;
    closed_ = true;
    state_->close();
    if (auto transport = transport_.lock()) transport->unregister(name_);
  }

 private:
  std::weak_ptr<InProcTransport> transport_;
  std::shared_ptr<detail::InProcListenerState> state_;
  std::string name_;
  bool closed_ = false;
};

}  // namespace

bool is_inproc_address(const std::string& address) {
  return str::starts_with(address, "inproc://");
}

InProcPair make_inproc_pair(std::string client_peer, std::string server_peer) {
  auto channel = std::make_shared<detail::InProcChannel>();
  InProcPair pair;
  pair.server = std::make_unique<detail::InProcEndpoint>(channel, /*is_server=*/true,
                                                         std::move(server_peer));
  pair.client = std::make_unique<detail::InProcEndpoint>(std::move(channel),
                                                         /*is_server=*/false,
                                                         std::move(client_peer));
  return pair;
}

std::shared_ptr<InProcTransport> InProcTransport::create() {
  return std::shared_ptr<InProcTransport>(new InProcTransport());
}

Result<std::unique_ptr<Listener>> InProcTransport::listen(const std::string& address) {
  if (!is_inproc_address(address)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "inproc listen address must start with inproc://: " + address);
  }
  std::string name = address.substr(9);
  if (name.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty inproc listener name");
  }
  LockGuard lock(mutex_);
  if (listeners_.count(name) != 0) {
    return make_error(ErrorCode::kAlreadyExists, "inproc name already bound: " + name);
  }
  auto state = std::make_shared<detail::InProcListenerState>();
  listeners_[name] = state;
  return std::unique_ptr<Listener>(
      new InProcListener(shared_from_this(), std::move(state), std::move(name)));
}

Result<std::unique_ptr<Endpoint>> InProcTransport::connect(const std::string& address) {
  if (!is_inproc_address(address)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "inproc connect address must start with inproc://: " + address);
  }
  const std::string name = address.substr(9);
  std::shared_ptr<detail::InProcListenerState> state;
  {
    LockGuard lock(mutex_);
    auto it = listeners_.find(name);
    if (it == listeners_.end()) {
      return make_error(ErrorCode::kConnectionError, "no inproc listener: " + name);
    }
    state = it->second;
  }
  if (state->closed()) {
    return make_error(ErrorCode::kConnectionError, "inproc listener closed: " + name);
  }
  InProcPair pair = make_inproc_pair(address, "inproc://client");
  state->enqueue(std::move(pair.server));
  return std::move(pair.client);
}

std::size_t InProcTransport::listener_count() const {
  LockGuard lock(mutex_);
  return listeners_.size();
}

void InProcTransport::unregister(const std::string& name) {
  LockGuard lock(mutex_);
  listeners_.erase(name);
}

}  // namespace tdp::net
