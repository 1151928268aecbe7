// Clean: a member whose type is a class template is typed by that
// template, not by its last template argument. `state_->close()` calls
// Queue::close, which only flips a flag; typed as `Endpoint` it would
// resolve to every Endpoint::close override, SlowEndpoint's sleep among
// them, and report a sleep under Holder::mutex_ that no path takes.
#include <chrono>
#include <memory>
#include <thread>

#include "util/sync.hpp"

namespace corpus {

class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void close() {}
};

class SlowEndpoint final : public Endpoint {
 public:
  void close() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

template <typename T>
class Queue {
 public:
  void close() { closed_ = true; }

 private:
  bool closed_ = false;
};

class Holder {
 public:
  void drop() {
    LockGuard lock(mutex_);
    state_->close();
  }

 private:
  mutable Mutex mutex_{"corpus.Holder.mutex_"};
  std::shared_ptr<Queue<std::unique_ptr<Endpoint>>> state_ TDP_GUARDED_BY(mutex_);
};

}  // namespace corpus
