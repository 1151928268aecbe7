// Tests for the Reactor poll loop (the Section 3.3 daemon main loop).
#include "net/reactor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <thread>

namespace tdp::net {
namespace {

struct Pipe {
  int r = -1, w = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    r = fds[0];
    w = fds[1];
  }
  ~Pipe() {
    if (r >= 0) ::close(r);
    if (w >= 0) ::close(w);
  }
  void signal() const {
    char byte = 'x';
    ASSERT_EQ(::write(w, &byte, 1), 1);
  }
  void drain() const {
    char byte;
    ASSERT_EQ(::read(r, &byte, 1), 1);
  }
};

TEST(Reactor, DispatchesReadyHandler) {
  Reactor reactor;
  Pipe pipe;
  int fired = 0;
  reactor.add_readable(pipe.r, [&] {
    pipe.drain();
    ++fired;
  });
  EXPECT_EQ(reactor.run_once(0), 0);  // nothing ready
  pipe.signal();
  EXPECT_EQ(reactor.run_once(1000), 1);
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, MultipleDescriptorsDispatchTogether) {
  Reactor reactor;
  Pipe a, b;
  int fired = 0;
  reactor.add_readable(a.r, [&] { a.drain(); ++fired; });
  reactor.add_readable(b.r, [&] { b.drain(); ++fired; });
  a.signal();
  b.signal();
  EXPECT_EQ(reactor.run_once(1000), 2);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(reactor.watch_count(), 2u);
}

TEST(Reactor, RemoveStopsDispatch) {
  Reactor reactor;
  Pipe pipe;
  int fired = 0;
  reactor.add_readable(pipe.r, [&] { pipe.drain(); ++fired; });
  reactor.remove(pipe.r);
  pipe.signal();
  EXPECT_EQ(reactor.run_once(50), 0);
  EXPECT_EQ(fired, 0);
}

TEST(Reactor, HandlerMayRemoveItself) {
  Reactor reactor;
  Pipe pipe;
  int fired = 0;
  reactor.add_readable(pipe.r, [&] {
    pipe.drain();
    ++fired;
    reactor.remove(pipe.r);
  });
  pipe.signal();
  EXPECT_EQ(reactor.run_once(1000), 1);
  pipe.signal();
  EXPECT_EQ(reactor.run_once(50), 0);
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, StopWakesBlockedRun) {
  // The wake byte stays in the pipe until run_once drains it, so the
  // runner returns whether stop() lands before or after it blocks.
  Reactor reactor;
  std::thread runner([&] { EXPECT_EQ(reactor.run_once(-1), 0); });
  reactor.stop();
  runner.join();
}

TEST(Reactor, RunOnceTimeoutReturnsZero) {
  Reactor reactor;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reactor.run_once(30), 0);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 25);
}

}  // namespace
}  // namespace tdp::net
