// attr_store.hpp - the in-memory attribute-value space (Section 2.1, 3.2).
//
// "Information in the shared environment space is kept in the form of
// (attribute, value) pairs, where both the attribute and value are
// constrained only to be null-terminated strings."
//
// The store is context-aware: "A RM that deals simultaneously with several
// RT may initialize a different space for each RT ... Each RT interacts
// with the RM through its own local Attribute Space, called a context."
// Contexts are reference counted and "will be destroyed when the last
// element using the specific context calls tdp_exit."
//
// The store also implements the waiter/subscription machinery the LASS and
// CASS servers use to park blocking gets and deliver asynchronous
// notifications.
//
// Concurrency: the store is sharded by context hash (kShardCount shards,
// each under its own tdp::SharedMutex). Everything belonging to a context
// — its attribute table, refcount, and watchers — lives in one shard, so
// clients working in different contexts never contend, and read-side
// operations (get/list/context_exists) take shared locks. Watcher and
// subscription callbacks always fire outside the shard lock, preserving
// the original contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"
#include "util/sync.hpp"

namespace tdp::attr {

/// Fired when a matching attribute is stored: (context, attribute, value).
using AttrCallback =
    std::function<void(const std::string&, const std::string&, const std::string&)>;

/// Trace-aware variant: also receives the telemetry trace header that rode
/// the put which stored the value ("" when the writer was untraced). The
/// servers use this to stamp replies/notifications so a blocked get in one
/// daemon joins the causal tree of the put that released it (Figure 6: the
/// starter's put("pid") parents paradynd's attach).
using TracedCallback = std::function<void(
    const std::string&, const std::string&, const std::string&, const std::string&)>;

/// Thread-safe attribute store shared by one server (LASS or CASS).
class AttributeStore {
 public:
  /// Shards in the context-hash partition. 16 is comfortably above the
  /// number of I/O threads that ever touch one store.
  static constexpr std::size_t kShardCount = 16;

  AttributeStore() = default;

  AttributeStore(const AttributeStore&) = delete;
  AttributeStore& operator=(const AttributeStore&) = delete;

  // --- context lifecycle (tdp_init / tdp_exit) ---

  /// Adds one participant to `context`, creating it if needed. Returns the
  /// new participant count.
  int open_context(std::string_view context);

  /// Removes one participant; when the count reaches zero the context and
  /// all its attributes are destroyed (Section 3.2). kNotFound when the
  /// context has no participants.
  Result<int> close_context(std::string_view context);

  [[nodiscard]] bool context_exists(std::string_view context) const;
  [[nodiscard]] int context_refcount(std::string_view context) const;

  // --- attribute operations ---

  /// Stores (attribute, value); overwrites silently, then fires all
  /// matching waiters (one-shot) and subscriptions, outside the lock.
  Status put(std::string_view context, std::string_view attribute,
             std::string value) {
    return put(context, attribute, std::move(value), std::string());
  }

  /// Trace-carrying put: `trace` is the wire trace header of the writer
  /// (retained with the value and handed to watchers; "" = untraced).
  Status put(std::string_view context, std::string_view attribute,
             std::string value, std::string trace);

  /// Immediate lookup; kNotFound when absent (the paper's documented
  /// non-blocking failure mode for tdp_get).
  Result<std::string> get(std::string_view context,
                          std::string_view attribute) const {
    return get(context, attribute, nullptr);
  }

  /// As above; additionally copies the stored trace header (possibly "")
  /// into *trace_out on success when trace_out is non-null.
  Result<std::string> get(std::string_view context, std::string_view attribute,
                          std::string* trace_out) const;

  /// Removes an attribute; kNotFound when absent.
  Status remove(std::string_view context, std::string_view attribute);

  /// Snapshot of all pairs in a context, sorted by attribute name.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> list(
      std::string_view context) const;

  /// Total number of attributes across all contexts (diagnostics).
  [[nodiscard]] std::size_t size() const;

  // --- waiters and subscriptions ---

  /// Atomic get-or-register: when the attribute exists, invokes `callback`
  /// immediately (on the calling thread) and returns 0; otherwise registers
  /// a one-shot waiter fired by the next matching put and returns its
  /// nonzero registration id (usable with unsubscribe).
  std::uint64_t get_or_wait(std::string_view context, std::string_view attribute,
                            AttrCallback callback);

  /// get_or_wait whose callback also receives the writer's trace header
  /// (the stored one on an immediate hit, the releasing put's otherwise).
  std::uint64_t get_or_wait_traced(std::string_view context,
                                   std::string_view attribute,
                                   TracedCallback callback);

  /// Persistent subscription: fires on every put whose attribute matches
  /// `pattern` (exact string, or prefix match when the pattern ends with
  /// '*'). Returns a nonzero subscription id.
  std::uint64_t subscribe(std::string_view context, std::string_view pattern,
                          AttrCallback callback);

  /// subscribe whose callback also receives each put's trace header.
  std::uint64_t subscribe_traced(std::string_view context,
                                 std::string_view pattern,
                                 TracedCallback callback);

  /// Cancels a waiter or subscription; unknown ids are ignored.
  void unsubscribe(std::uint64_t id);

  /// Count of outstanding waiters + subscriptions (diagnostics/tests).
  [[nodiscard]] std::size_t watcher_count() const;

 private:
  struct Watcher {
    std::uint64_t id = 0;
    std::string context;
    std::string pattern;  ///< exact name, or prefix when trailing '*'
    bool one_shot = false;
    TracedCallback callback;
  };

  /// A stored value plus the trace header of the put that wrote it.
  struct Entry {
    std::string value;
    std::string trace;
  };

  /// One partition: contexts whose hash lands here, plus their refcounts
  /// and watchers. std::less<> enables allocation-free string_view lookups.
  struct Shard {
    mutable SharedMutex mutex{"AttributeStore::Shard::mutex"};
    std::map<std::string, std::map<std::string, Entry, std::less<>>,
             std::less<>>
        contexts TDP_GUARDED_BY(mutex);
    std::map<std::string, int, std::less<>> refcounts TDP_GUARDED_BY(mutex);
    std::vector<Watcher> watchers TDP_GUARDED_BY(mutex);
  };

  Shard& shard_for(std::string_view context) {
    return shards_[std::hash<std::string_view>{}(context) % kShardCount];
  }
  const Shard& shard_for(std::string_view context) const {
    return shards_[std::hash<std::string_view>{}(context) % kShardCount];
  }

  /// Collects the callbacks of every watcher matching (context, attribute),
  /// erasing one-shot waiters as it goes.
  static void match_watchers_locked(Shard& shard, std::string_view context,
                                    std::string_view attribute,
                                    std::vector<TracedCallback>& to_fire)
      TDP_REQUIRES(shard.mutex);

  /// Registers a watcher in the shard and returns its id.
  std::uint64_t add_watcher_locked(Shard& shard, std::string_view context,
                                   std::string_view pattern, bool one_shot,
                                   TracedCallback callback)
      TDP_REQUIRES(shard.mutex);

  static bool pattern_matches(const std::string& pattern, std::string_view attribute);

  std::array<Shard, kShardCount> shards_;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace tdp::attr
