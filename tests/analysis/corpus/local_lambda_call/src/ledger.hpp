// Clean: a call to a local lambda is a call to that lambda. `record(...)`
// in Ledger::snapshot only appends to a vector; resolved by name it would
// reach Uplink::record, which sleeps, and report a sleep under
// Ledger::mutex_ that no path takes.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace corpus {

class Uplink {
 public:
  void record(const std::string& line) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    last_ = line;
  }

 private:
  std::string last_;
};

class Ledger {
 public:
  void snapshot() {
    LockGuard lock(mutex_);
    auto record = [this](const std::string& line) { lines_.push_back(line); };
    record("head");
    record("tail");
  }

 private:
  mutable Mutex mutex_{"corpus.Ledger.mutex_"};
  std::vector<std::string> lines_ TDP_GUARDED_BY(mutex_);
};

}  // namespace corpus
