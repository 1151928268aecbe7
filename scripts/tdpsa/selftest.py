"""--self-test: the engine must fail where it claims to fail.

Two layers, mirroring the lint.py contract:

  * inline cases — small virtual trees written to a temp dir, including
    the canonical "raw std::mutex" file the analyze gate promises to
    reject, plus whole-program cases (sleep under guard, callback under
    lock, an acquired-after inversion across two functions);
  * the seeded-bug corpus — every tests/analysis/corpus/<case>/ tree
    must produce the rule ids its expect.txt lists (or be clean when
    expect.txt says "clean").

Exit 0 when every case behaves, 2 otherwise.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from .engine import analyze_tree

BAD_RAW_MUTEX = """\
#include <mutex>
struct S {
  std::mutex mu;
  void f() { std::lock_guard<std::mutex> g(mu); }
};
"""

BAD_SLEEP_UNDER_LOCK = """\
void Reactor::run_once() {
  {
    LockGuard lock(mutex_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}
"""

BAD_CALLBACK_UNDER_LOCK = """\
#include "util/sync.hpp"
#include <functional>
class Store {
 public:
  void notify(int v) {
    LockGuard lock(mutex_);
    on_update_(v);
  }
 private:
  mutable Mutex mutex_{"Store::mutex_"};
  std::function<void(int)> on_update_ TDP_GUARDED_BY(mutex_);
};
"""

BAD_INVERSION = """\
#include "util/sync.hpp"
struct Pair {
  mutable Mutex a_{"Pair::a_"};
  mutable Mutex b_{"Pair::b_"};

  void forward() {
    LockGuard la(a_);
    LockGuard lb(b_);
  }
  void backward() {
    LockGuard lb(b_);
    LockGuard la(a_);
  }
};
"""

GOOD_CONDVAR_WAIT = """\
#include "util/sync.hpp"
class Queue {
 public:
  void pop() {
    UniqueLock lock(mutex_);
    cv_.wait(lock);
  }
 private:
  CondVar cv_;
  mutable Mutex mutex_{"Queue::mutex_"};
};
"""

GOOD_CALLBACK_OUTSIDE = """\
#include "util/sync.hpp"
#include <functional>
class Store {
 public:
  void notify(int v) {
    std::function<void(int)> cb;
    {
      LockGuard lock(mutex_);
      cb = on_update_;
    }
    cb(v);
  }
 private:
  mutable Mutex mutex_{"Store::mutex_"};
  std::function<void(int)> on_update_ TDP_GUARDED_BY(mutex_);
};
"""

BAD_UNGUARDED_FIELD = """\
struct S {
  mutable Mutex mutex_{"S::mutex_"};
  int guarded_ TDP_GUARDED_BY(mutex_) = 0;
  int oops_ = 0;
};
"""

BAD_STDERR = """\
#include <cstdio>
void f() { std::fprintf(stderr, "oops\\n"); }
"""

BAD_RAW_KILL = """\
#include <csignal>
void f(int pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
}
"""

BAD_MANUAL_FRAMING = """\
#include "net/message.hpp"
void f(const tdp::net::Message& msg) {
  auto frame = msg.encode();
  auto decoded = tdp::net::Message::decode(frame.data(), frame.size());
}
"""

BAD_CLOCK_READ = """\
#include <chrono>
void f() {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  (void)deadline;
}
"""

# Nine classes implement close() and one of them sleeps. `sink` has no
# declared type, so only the name union over every close() finds the sleep.
BAD_SLEEP_BEHIND_NAME_UNION = "".join(
    f"struct Closer{i} {{ void close() {{}} }};\n" for i in range(8)) + """\
struct SlowCloser {
  void close() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }
};
class Holder {
 public:
  void drop() {
    LockGuard lock(mutex_);
    auto* sink = lookup();
    sink->close();
  }
 private:
  mutable Mutex mutex_{"Holder::mutex_"};
};
"""

BAD_SHARED_TEMP_PATH = """\
#include <gtest/gtest.h>
TEST(Pool, Submit) {
  const std::string dir = ::testing::TempDir() + "/pool_submit";
}
"""

GOOD_PROCESS_TEMP_PATH = """\
#include <gtest/gtest.h>
#include "support/tempdir.hpp"
TEST(Pool, Submit) {
  const std::string dir = tdp::testdir::fresh("pool_submit");
}
"""

GOOD_FILE = """\
#include "util/sync.hpp"
struct S {
  mutable Mutex mutex_{"S::mutex_"};
  int guarded_ TDP_GUARDED_BY(mutex_) = 0;

  int deliberately_unguarded_ = 0;  ///< owner-thread only
};
"""

INLINE_CASES = [
    # (name, files, rules expected nonempty — [] means "must be clean")
    ("raw std::mutex", {"src/bad.cpp": BAD_RAW_MUTEX}, ["raw-sync"]),
    ("sleep under lock", {"src/net/reactor.cpp": BAD_SLEEP_UNDER_LOCK},
     ["blocking-under-lock"]),
    ("callback under lock", {"src/attrspace/store.hpp": BAD_CALLBACK_UNDER_LOCK},
     ["callback-under-lock"]),
    ("acquired-after inversion", {"src/util/pair.hpp": BAD_INVERSION},
     ["lock-order-cycle"]),
    ("sleep behind a nine-way name union",
     {"src/net/closers.hpp": BAD_SLEEP_BEHIND_NAME_UNION},
     ["blocking-under-lock"]),
    ("condvar wait holds only its own lock",
     {"src/util/queue.hpp": GOOD_CONDVAR_WAIT}, []),
    ("callback copied out and invoked outside",
     {"src/attrspace/store.hpp": GOOD_CALLBACK_OUTSIDE}, []),
    ("unguarded adjacent field", {"src/bad.hpp": BAD_UNGUARDED_FIELD},
     ["unguarded-adjacent-field"]),
    ("stray stderr write", {"src/bad.cpp": BAD_STDERR}, ["stray-stderr"]),
    ("stderr in exempt file", {"src/util/log.cpp": BAD_STDERR}, []),
    ("raw kill/waitpid", {"src/condor/oops.cpp": BAD_RAW_KILL},
     ["raw-process-signal"]),
    ("kill in proc backend", {"src/proc/posix_backend.cpp": BAD_RAW_KILL}, []),
    ("kill in master.cpp", {"src/condor/master.cpp": BAD_RAW_KILL}, []),
    ("manual framing outside net", {"src/attrspace/oops.cpp": BAD_MANUAL_FRAMING},
     ["manual-framing"]),
    ("manual framing inside net", {"src/net/tcp.cpp": BAD_MANUAL_FRAMING}, []),
    ("raw clock read", {"src/condor/oops.cpp": BAD_CLOCK_READ},
     ["raw-clock-read"]),
    ("clock read in util/clock.hpp", {"src/util/clock.hpp": BAD_CLOCK_READ},
     []),
    ("TempDir() joined to a literal in a test",
     {"tests/condor/test_pool.cpp": BAD_SHARED_TEMP_PATH},
     ["shared-temp-path"]),
    ("per-process test temp dir",
     {"tests/condor/test_pool.cpp": GOOD_PROCESS_TEMP_PATH}, []),
    ("clean file", {"src/good.hpp": GOOD_FILE}, []),
]


def _run_case(root: Path) -> tuple[int, set[str]]:
    report, _ = analyze_tree(root, use_baseline=False)
    active = [f for f in report.findings if not f.baselined]
    return (1 if active else 0), {f.rule for f in active}


def run_self_test(repo_root: Path) -> int:
    failures = 0
    for name, files, rules in INLINE_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for rel, content in files.items():
                target = root / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(content)
            rc, got = _run_case(root)
            if rules:
                ok = rc != 0 and all(r in got for r in rules)
            else:
                ok = rc == 0
            print(f"self-test [{name}]: {'ok' if ok else 'FAILED'}"
                  + ("" if ok else f" (exit {rc}, rules {sorted(got)})"))
            failures += 0 if ok else 1

    corpus = repo_root / "tests" / "analysis" / "corpus"
    if corpus.is_dir():
        for case in sorted(p for p in corpus.iterdir() if p.is_dir()):
            expect_file = case / "expect.txt"
            if not expect_file.exists():
                continue
            expected = [l.strip() for l in expect_file.read_text().splitlines()
                        if l.strip() and not l.startswith("#")]
            rc, got = _run_case(case)
            if expected == ["clean"]:
                ok = rc == 0
            else:
                ok = rc != 0 and all(r in got for r in expected)
            print(f"self-test [corpus/{case.name}]: {'ok' if ok else 'FAILED'}"
                  + ("" if ok else f" (exit {rc}, rules {sorted(got)}, "
                                   f"expected {expected})"))
            failures += 0 if ok else 1
    else:
        print(f"self-test: corpus not found under {corpus} (inline cases only)")

    if failures:
        print(f"self-test: {failures} case(s) FAILED")
        return 2
    print("self-test: all cases ok")
    return 0
