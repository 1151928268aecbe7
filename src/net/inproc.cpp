#include "net/inproc.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>

#include "util/string_util.hpp"

namespace tdp::net {

namespace detail {

/// What InProcQueue::pop found.
enum class Popped { kItem, kEmpty, kClosed };

/// An unbounded MPSC queue whose fill level an eventfd mirrors, so poll()
/// on the descriptor is level-triggered on "an item or the close marker is
/// queued". The first read_fd() makes the descriptor, holding the level of
/// that moment: a queue nobody polls (a blocking client's reply queue)
/// owns none and pays no syscall per item. From then on, in semaphore
/// mode, each push adds 1, each pop takes 1 and close adds 1 that nothing
/// takes. A counter has no pipe's 64-KiB ceiling, so the level holds at
/// any depth.
template <typename T>
class InProcQueue {
 public:
  InProcQueue() = default;

  ~InProcQueue() {
    if (level_fd_ >= 0) ::close(level_fd_);
  }

  InProcQueue(const InProcQueue&) = delete;
  InProcQueue& operator=(const InProcQueue&) = delete;

  void push(T item) {
    int fd;
    {
      LockGuard lock(mutex_);
      items_.push_back(std::move(item));
      fd = level_fd_;
    }
    add_one(fd);
    cv_.notify_one();
  }

  /// Moves the next item into *out. timeout_ms: <0 block, 0 poll, >0
  /// bounded. kEmpty when the wait ends with nothing queued.
  Popped pop(int timeout_ms, T* out) {
    LockGuard lock(mutex_);
    auto ready = [this]() TDP_REQUIRES(mutex_) { return !items_.empty() || closed_; };
    if (timeout_ms < 0) {
      cv_.wait(lock, ready);
    } else if (timeout_ms > 0) {
      cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
    }
    const bool popped = !items_.empty();
    if (popped) {
      *out = std::move(items_.front());
      items_.pop_front();
    }
    if (level_fd_ >= 0) take_level(popped);
    if (popped) return Popped::kItem;
    return closed_ ? Popped::kClosed : Popped::kEmpty;
  }

  void close() {
    int fd;
    {
      LockGuard lock(mutex_);
      if (closed_) return;
      closed_ = true;
      fd = level_fd_;
    }
    add_one(fd);  // the close marker: never taken, so pollers see the end
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    LockGuard lock(mutex_);
    return closed_;
  }

  /// The level descriptor, made on first use; -1 if it cannot be made.
  [[nodiscard]] int read_fd() const {
    LockGuard lock(mutex_);
    if (level_fd_ < 0) {
      const auto level = static_cast<unsigned>(items_.size() + (closed_ ? 1 : 0));
      level_fd_ = ::eventfd(level, EFD_SEMAPHORE | EFD_NONBLOCK | EFD_CLOEXEC);
    }
    return level_fd_;
  }

 private:
  static void add_one(int fd) {
    if (fd < 0) return;
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &one, sizeof(one));
  }

  /// Takes the popped item's unit off the level. A push adds its unit
  /// after it has queued the item and let go of the lock, so a pop can get
  /// there first. The unit it could not take is owed, and a later pop
  /// takes it once the add has landed, if need be one that finds the
  /// queue empty.
  void take_level(bool popped) TDP_REQUIRES(mutex_) {
    if (popped) ++owed_;
    std::uint64_t unit = 0;
    while (owed_ > 0 && ::read(level_fd_, &unit, sizeof(unit)) == sizeof(unit)) --owed_;
  }

  CondVar cv_;
  mutable Mutex mutex_{"InProcQueue::mutex_"};
  std::deque<T> items_ TDP_GUARDED_BY(mutex_);
  bool closed_ TDP_GUARDED_BY(mutex_) = false;
  mutable int level_fd_ TDP_GUARDED_BY(mutex_) = -1;
  /// Units popped before their push added them (see take_level).
  std::uint64_t owed_ TDP_GUARDED_BY(mutex_) = 0;
};

/// Shared state of one connection: two directed queues.
struct InProcChannel {
  InProcQueue<Message> client_to_server;
  InProcQueue<Message> server_to_client;
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
    Message msg;
    switch (recv_queue().pop(timeout_ms, &msg)) {
      case Popped::kItem:
        return msg;
      case Popped::kClosed:
        return make_error(ErrorCode::kConnectionError, "inproc peer closed");
      case Popped::kEmpty:
        break;
    }
    return make_error(ErrorCode::kTimeout, "inproc receive timed out");
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
  InProcQueue<Message>& send_queue() const {
    return is_server_ ? channel_->server_to_client : channel_->client_to_server;
  }
  InProcQueue<Message>& recv_queue() const {
    return is_server_ ? channel_->client_to_server : channel_->server_to_client;
  }

  std::shared_ptr<InProcChannel> channel_;
  bool is_server_;
  std::string peer_;
  std::atomic<bool> closed_{false};
};

}  // namespace detail

namespace {

class InProcListener final : public Listener {
 public:
  InProcListener(std::shared_ptr<InProcTransport> transport,
                 std::shared_ptr<detail::InProcQueue<std::unique_ptr<Endpoint>>> state,
                 std::string name)
      : transport_(std::move(transport)), state_(std::move(state)),
        name_(std::move(name)) {}

  ~InProcListener() override { InProcListener::close(); }

  Result<std::unique_ptr<Endpoint>> accept(int timeout_ms) override {
    std::unique_ptr<Endpoint> endpoint;
    switch (state_->pop(timeout_ms, &endpoint)) {
      case detail::Popped::kItem:
        return endpoint;
      case detail::Popped::kClosed:
        return make_error(ErrorCode::kCancelled, "listener closed");
      case detail::Popped::kEmpty:
        break;
    }
    return make_error(ErrorCode::kTimeout, "accept timed out");
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
  std::shared_ptr<detail::InProcQueue<std::unique_ptr<Endpoint>>> state_;
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
  auto state = std::make_shared<detail::InProcQueue<std::unique_ptr<Endpoint>>>();
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
  std::shared_ptr<detail::InProcQueue<std::unique_ptr<Endpoint>>> state;
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
  state->push(std::move(pair.server));
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
