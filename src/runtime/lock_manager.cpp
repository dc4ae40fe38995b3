#include "runtime/lock_manager.hpp"

#include <chrono>
#include <sstream>

#include "obs/request.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/resilience.hpp"
#include "sexpr/value.hpp"

namespace curare::runtime {

namespace {

/// Name a location the way a Lisp programmer would recognize it: global
/// variables carry their symbol, object fields their field symbol.
std::string describe_key(const LocKey& k) {
  std::ostringstream os;
  if (k.field == nullptr && k.object != nullptr &&
      k.object->kind == sexpr::Kind::Symbol) {
    os << "(var "
       << static_cast<const sexpr::Symbol*>(k.object)->name << ")";
    return os.str();
  }
  os << "obj@" << static_cast<const void*>(k.object);
  if (k.field != nullptr) os << "." << k.field->name;
  return os.str();
}

}  // namespace

LockManager::LockManager(obs::Recorder& rec)
    : rec_(rec),
      acquisitions_(rec.metrics.counter("lock.acquisitions")),
      contended_(rec.metrics.counter("lock.contended")),
      wait_ns_(rec.metrics.histogram("lock.wait_ns")) {}

void LockManager::lock(const LocKey& key, bool exclusive) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  acquisitions_.add();
  FaultInjector& fi = FaultInjector::instance();
  if (fi.check(FaultInjector::Site::kLockAcquire)) {
    // Spurious-wakeup fault: poke this key's shard so its waiters get
    // an extra predicate re-check.
    shard_for(key).cv.notify_all();
  }
  Shard& s = shard_for(key);
  std::unique_lock<std::mutex> g(s.mu);
  const auto self = std::this_thread::get_id();

  // Contention accounting: stamp the wait start on the first failed
  // attempt only, so a multi-wakeup wait counts once with its full span.
  bool waited = false;
  std::uint64_t wait_start = 0;
  const std::uint64_t key_id = LocKeyHash{}(key);

  // unlock() erases entries whose counts reach zero, so references into
  // the map are only valid until the next wait: re-look-up after every
  // wake-up.
  for (;;) {
    Entry& e = s.entries[key];  // creates a zero entry if absent

    bool acquired = false;
    if (e.writer == self && e.writer_depth > 0) {
      // Reentrant hold (reads by the writer also land here so unlock
      // bookkeeping stays symmetric).
      ++e.writer_depth;
      acquired = true;
    } else if (exclusive) {
      if (e.readers == 0 && e.writer_depth == 0) {
        e.writer = self;
        e.writer_depth = 1;
        acquired = true;
      } else if (e.holds_by(self) > 0) {
        // Read→write upgrade by the holder: exclusive cannot be
        // granted until readers == 0, and this thread's own shared
        // hold can never drain while it is parked here. Waiting is a
        // guaranteed self-deadlock — fail fast instead.
        g.unlock();
        throw sexpr::LispError(
            "read->write lock upgrade on " + describe_key(key) +
            ": this thread already holds the location shared and "
            "would deadlock waiting for itself; release the read "
            "lock first or acquire exclusive up front");
      }
    } else {
      if (e.writer_depth == 0) {
        ++e.readers;
        // Record the hold so a later exclusive request by this thread
        // is recognized as an upgrade.
        bool found = false;
        for (auto& [tid, n] : e.reader_holds) {
          if (tid == self) {
            ++n;
            found = true;
            break;
          }
        }
        if (!found) e.reader_holds.emplace_back(self, 1);
        acquired = true;
      }
    }
    if (acquired) {
      if (waited) {
        const std::uint64_t end = rec_.tracer.now_ns();
        const std::uint64_t span = end > wait_start ? end - wait_start : 0;
        wait_ns_.observe(span);
        rec_.tracer.emit(obs::EventKind::kLockWait, wait_start, span,
                         key_id, exclusive);
        // Per-request attribution: the blocked span counts against the
        // serving request this thread is working for (if any).
        obs::charge_request(&obs::Breakdown::lock_wait_ns, span);
      }
      rec_.tracer.instant(obs::EventKind::kLockAcquire, key_id, exclusive);
      return;
    }
    if (!waited) {
      waited = true;
      wait_start = rec_.tracer.now_ns();
      contended_.add();
    }
    // Bounded slice instead of an open-ended wait: a notify still wakes
    // us immediately; the timeout is only the cancellation backstop.
    // Under fault injection the slice shrinks so injected spurious
    // wakeups actually churn the predicate.
    s.cv.wait_for(g, fi.enabled() ? std::chrono::milliseconds(1)
                                  : std::chrono::milliseconds(10));

    // Only the cheap flag/clock reads run under the shard mutex.
    // should_abort() captures a diagnostic dump, and that dump walks
    // every shard — calling it with ours held would self-deadlock, so
    // it (and raise) run after g is released. The whole chain counts:
    // a CRI server's run token has no deadline of its own, the
    // caller's token above it does.
    CancelState* tok = current_cancel();
    if (tok != nullptr && tok->abort_due()) {
      g.unlock();
      tok->should_abort();  // fires the token: abort_due implies it
      tok->raise();
    }
  }
}

void LockManager::unlock(const LocKey& key, bool exclusive) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  rec_.tracer.instant(obs::EventKind::kLockRelease, LocKeyHash{}(key),
                      exclusive);
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> g(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) {
    throw sexpr::LispError("unlock of a location that is not locked");
  }
  Entry& e = it->second;
  const auto self = std::this_thread::get_id();

  if (e.writer_depth > 0 && e.writer == self) {
    // Owner unlocking a (possibly reentrant) write hold. A shared
    // unlock by the writer also lands here, matching the reentrant
    // acquisition path above.
    (void)exclusive;
    if (--e.writer_depth == 0) {
      e.writer = std::thread::id{};
      if (e.readers == 0) s.entries.erase(it);
      s.cv.notify_all();
    }
    return;
  }

  if (!exclusive && e.readers > 0) {
    // Drop this thread's recorded hold. When no record matches — the
    // hand-off pattern, lock on one server thread and unlock on
    // another — retire the oldest record instead, so the table tracks
    // *counts* and a record can never outlive the holds it stands for.
    // (A stale record would later throw a false "read->write upgrade"
    // at a thread that no longer holds anything. The count view errs
    // only the other way: with several concurrent readers plus
    // hand-offs, the retired record may belong to a thread that still
    // holds, so its upgrade degrades from fail-fast to a deadline- or
    // stall-bounded wait.)
    bool dropped = false;
    for (auto hit = e.reader_holds.begin(); hit != e.reader_holds.end();
         ++hit) {
      if (hit->first == self) {
        if (--hit->second == 0) e.reader_holds.erase(hit);
        dropped = true;
        break;
      }
    }
    if (!dropped && !e.reader_holds.empty()) {
      auto hit = e.reader_holds.begin();
      if (--hit->second == 0) e.reader_holds.erase(hit);
    }
    if (--e.readers == 0 && e.writer_depth == 0) {
      s.entries.erase(it);
      s.cv.notify_all();
    }
    return;
  }

  throw sexpr::LispError(
      "unlock does not match a lock held by this thread");
}

std::size_t LockManager::live_entries() const {
  std::size_t n = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    n += s.entries.size();
  }
  return n;
}

std::string LockManager::dump_held() const {
  std::ostringstream os;
  std::size_t n = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    for (const auto& [key, e] : s.entries) {
      os << "  " << describe_key(key) << ": ";
      if (e.writer_depth > 0) {
        os << "exclusive depth=" << e.writer_depth << " by thread "
           << e.writer;
      }
      if (e.readers > 0) {
        if (e.writer_depth > 0) os << ", ";
        os << "shared readers=" << e.readers;
      }
      os << "\n";
      ++n;
    }
  }
  if (n == 0) return "held locks: none\n";
  return "held locks (" + std::to_string(n) + "):\n" + os.str();
}

void LockManager::release_thread_holds() {
  const auto self = std::this_thread::get_id();
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    bool released = false;
    for (auto it = s.entries.begin(); it != s.entries.end();) {
      Entry& e = it->second;
      if (e.writer_depth > 0 && e.writer == self) {
        e.writer = std::thread::id{};
        e.writer_depth = 0;
        released = true;
      }
      for (auto h = e.reader_holds.begin(); h != e.reader_holds.end();) {
        if (h->first != self) {
          ++h;
          continue;
        }
        e.readers -= h->second;
        h = e.reader_holds.erase(h);
        released = true;
      }
      // Waiters re-look-up their entry after every wake-up, so erasing
      // an idle one is safe.
      if (e.readers == 0 && e.writer_depth == 0) {
        it = s.entries.erase(it);
      } else {
        ++it;
      }
    }
    if (released) s.cv.notify_all();
  }
}

void LockManager::reset() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> g(s.mu);
    s.entries.clear();
    s.cv.notify_all();
  }
}

}  // namespace curare::runtime
