#include "attrspace/attr_store.hpp"

#include <algorithm>

#include "util/telemetry.hpp"

namespace tdp::attr {

namespace {

// Shard-op counters. Registered once, then a relaxed add per op - the
// registry reference is stable for the process lifetime.
telemetry::Counter& puts_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrstore.puts");
  return c;
}

telemetry::Counter& gets_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrstore.gets");
  return c;
}

telemetry::Counter& watchers_fired_counter() {
  static telemetry::Counter& c =
      telemetry::Registry::instance().counter("attrstore.watchers_fired");
  return c;
}

/// Adapts a plain callback to the traced signature (trace dropped).
TracedCallback drop_trace(AttrCallback callback) {
  return [cb = std::move(callback)](const std::string& context,
                                    const std::string& attribute,
                                    const std::string& value,
                                    const std::string& /*trace*/) {
    cb(context, attribute, value);
  };
}

}  // namespace

int AttributeStore::open_context(std::string_view context) {
  Shard& shard = shard_for(context);
  WriteLock lock(shard.mutex);
  auto ctx_it = shard.contexts.find(context);
  if (ctx_it == shard.contexts.end()) {
    shard.contexts.emplace(std::string(context),
                           std::map<std::string, Entry, std::less<>>{});
  }
  auto rc_it = shard.refcounts.find(context);
  if (rc_it == shard.refcounts.end()) {
    rc_it = shard.refcounts.emplace(std::string(context), 0).first;
  }
  return ++rc_it->second;
}

Result<int> AttributeStore::close_context(std::string_view context) {
  Shard& shard = shard_for(context);
  WriteLock lock(shard.mutex);
  auto it = shard.refcounts.find(context);
  if (it == shard.refcounts.end() || it->second <= 0) {
    return make_error(ErrorCode::kNotFound,
                      "context has no participants: " + std::string(context));
  }
  int remaining = --it->second;
  if (remaining == 0) {
    shard.refcounts.erase(it);
    auto ctx_it = shard.contexts.find(context);
    if (ctx_it != shard.contexts.end()) shard.contexts.erase(ctx_it);
    // Waiters on a destroyed context can never fire; drop them.
    shard.watchers.erase(
        std::remove_if(shard.watchers.begin(), shard.watchers.end(),
                       [&](const Watcher& w) { return w.context == context; }),
        shard.watchers.end());
  }
  return remaining;
}

bool AttributeStore::context_exists(std::string_view context) const {
  const Shard& shard = shard_for(context);
  SharedLock lock(shard.mutex);
  return shard.contexts.find(context) != shard.contexts.end();
}

int AttributeStore::context_refcount(std::string_view context) const {
  const Shard& shard = shard_for(context);
  SharedLock lock(shard.mutex);
  auto it = shard.refcounts.find(context);
  return it == shard.refcounts.end() ? 0 : it->second;
}

void AttributeStore::match_watchers_locked(Shard& shard, std::string_view context,
                                           std::string_view attribute,
                                           std::vector<TracedCallback>& to_fire) {
  shard.mutex.assert_held();
  for (auto it = shard.watchers.begin(); it != shard.watchers.end();) {
    if (it->context == context && pattern_matches(it->pattern, attribute)) {
      to_fire.push_back(it->callback);
      if (it->one_shot) {
        it = shard.watchers.erase(it);
        continue;
      }
    }
    ++it;
  }
}

std::uint64_t AttributeStore::add_watcher_locked(Shard& shard,
                                                 std::string_view context,
                                                 std::string_view pattern,
                                                 bool one_shot,
                                                 TracedCallback callback) {
  shard.mutex.assert_held();
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  shard.watchers.push_back(
      {id, std::string(context), std::string(pattern), one_shot, std::move(callback)});
  return id;
}

Status AttributeStore::put(std::string_view context, std::string_view attribute,
                           std::string value, std::string trace) {
  puts_counter().inc();
  Shard& shard = shard_for(context);
  std::vector<TracedCallback> to_fire;
  std::string fired_value;
  {
    WriteLock lock(shard.mutex);
    auto ctx_it = shard.contexts.find(context);
    if (ctx_it == shard.contexts.end()) {
      // Implicit context creation on put.
      ctx_it = shard.contexts
                   .emplace(std::string(context),
                            std::map<std::string, Entry, std::less<>>{})
                   .first;
    }
    auto attr_it = ctx_it->second.find(attribute);
    if (attr_it == ctx_it->second.end()) {
      attr_it = ctx_it->second
                    .emplace(std::string(attribute),
                             Entry{std::move(value), trace})
                    .first;
    } else {
      attr_it->second.value = std::move(value);
      attr_it->second.trace = trace;
    }
    match_watchers_locked(shard, context, attribute, to_fire);
    if (!to_fire.empty()) fired_value = attr_it->second.value;
  }
  if (!to_fire.empty()) {
    // PR 1 invariant, asserted: watcher callbacks fire outside the shard
    // lock, so a callback that re-enters the store cannot self-deadlock.
    shard.mutex.assert_not_held();
    watchers_fired_counter().add(to_fire.size());
    const std::string ctx_name(context);
    const std::string attr_name(attribute);
    for (auto& callback : to_fire) {
      callback(ctx_name, attr_name, fired_value, trace);
    }
  }
  return Status::ok();
}

Result<std::string> AttributeStore::get(std::string_view context,
                                        std::string_view attribute,
                                        std::string* trace_out) const {
  gets_counter().inc();
  const Shard& shard = shard_for(context);
  SharedLock lock(shard.mutex);
  auto ctx_it = shard.contexts.find(context);
  if (ctx_it == shard.contexts.end()) {
    return make_error(ErrorCode::kNotFound, "no such context: " + std::string(context));
  }
  auto attr_it = ctx_it->second.find(attribute);
  if (attr_it == ctx_it->second.end()) {
    return make_error(ErrorCode::kNotFound,
                      "attribute not in shared space: " + std::string(attribute));
  }
  if (trace_out != nullptr) *trace_out = attr_it->second.trace;
  return attr_it->second.value;
}

Status AttributeStore::remove(std::string_view context, std::string_view attribute) {
  Shard& shard = shard_for(context);
  WriteLock lock(shard.mutex);
  auto ctx_it = shard.contexts.find(context);
  if (ctx_it == shard.contexts.end()) {
    return make_error(ErrorCode::kNotFound,
                      "attribute not in shared space: " + std::string(attribute));
  }
  auto attr_it = ctx_it->second.find(attribute);
  if (attr_it == ctx_it->second.end()) {
    return make_error(ErrorCode::kNotFound,
                      "attribute not in shared space: " + std::string(attribute));
  }
  ctx_it->second.erase(attr_it);
  return Status::ok();
}

std::vector<std::pair<std::string, std::string>> AttributeStore::list(
    std::string_view context) const {
  const Shard& shard = shard_for(context);
  SharedLock lock(shard.mutex);
  std::vector<std::pair<std::string, std::string>> out;
  auto ctx_it = shard.contexts.find(context);
  if (ctx_it != shard.contexts.end()) {
    out.reserve(ctx_it->second.size());
    for (const auto& [name, entry] : ctx_it->second) {
      out.emplace_back(name, entry.value);
    }
  }
  return out;
}

std::size_t AttributeStore::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    SharedLock lock(shard.mutex);
    for (const auto& [name, space] : shard.contexts) total += space.size();
  }
  return total;
}

std::uint64_t AttributeStore::get_or_wait(std::string_view context,
                                          std::string_view attribute,
                                          AttrCallback callback) {
  return get_or_wait_traced(context, attribute, drop_trace(std::move(callback)));
}

std::uint64_t AttributeStore::get_or_wait_traced(std::string_view context,
                                                 std::string_view attribute,
                                                 TracedCallback callback) {
  Shard& shard = shard_for(context);
  std::string value;
  std::string trace;
  {
    WriteLock lock(shard.mutex);
    auto ctx_it = shard.contexts.find(context);
    if (ctx_it != shard.contexts.end()) {
      auto attr_it = ctx_it->second.find(attribute);
      if (attr_it != ctx_it->second.end()) {
        value = attr_it->second.value;
        trace = attr_it->second.trace;
        // Fall through to fire outside the lock.
      } else {
        return add_watcher_locked(shard, context, attribute, /*one_shot=*/true,
                                  std::move(callback));
      }
    } else {
      return add_watcher_locked(shard, context, attribute, /*one_shot=*/true,
                                std::move(callback));
    }
  }
  // Same invariant as put(): immediate-hit callbacks run outside the lock.
  shard.mutex.assert_not_held();
  callback(std::string(context), std::string(attribute), value, trace);
  return 0;
}

std::uint64_t AttributeStore::subscribe(std::string_view context,
                                        std::string_view pattern,
                                        AttrCallback callback) {
  return subscribe_traced(context, pattern, drop_trace(std::move(callback)));
}

std::uint64_t AttributeStore::subscribe_traced(std::string_view context,
                                               std::string_view pattern,
                                               TracedCallback callback) {
  Shard& shard = shard_for(context);
  WriteLock lock(shard.mutex);
  return add_watcher_locked(shard, context, pattern, /*one_shot=*/false,
                            std::move(callback));
}

void AttributeStore::unsubscribe(std::uint64_t id) {
  if (id == 0) return;
  // Ids do not encode their shard; scan all of them (rare operation).
  for (Shard& shard : shards_) {
    WriteLock lock(shard.mutex);
    auto it = std::remove_if(shard.watchers.begin(), shard.watchers.end(),
                             [id](const Watcher& w) { return w.id == id; });
    if (it != shard.watchers.end()) {
      shard.watchers.erase(it, shard.watchers.end());
      return;
    }
  }
}

std::size_t AttributeStore::watcher_count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    SharedLock lock(shard.mutex);
    total += shard.watchers.size();
  }
  return total;
}

bool AttributeStore::pattern_matches(const std::string& pattern,
                                     std::string_view attribute) {
  if (!pattern.empty() && pattern.back() == '*') {
    std::string_view prefix(pattern.data(), pattern.size() - 1);
    return attribute.substr(0, prefix.size()) == prefix;
  }
  return pattern == attribute;
}

}  // namespace tdp::attr
