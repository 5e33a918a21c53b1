#include "serve/session_cache.h"

#include <cstdio>
#include <utility>

#include "serve/checkpoint_codec.h"

namespace lubt {
namespace {

// Resident-footprint estimate for a live session; same family as
// ApproxSessionBytes (serve/checkpoint_codec.h) but sourced from the
// session's accessors so no checkpoint copy is needed to account it.
std::size_t ApproxLiveBytes(const EcoSession& session) {
  const std::size_t m = static_cast<std::size_t>(session.NumSinks());
  const std::size_t n = static_cast<std::size_t>(session.Topo().NumNodes());
  const std::size_t rows = static_cast<std::size_t>(session.NumLpRows());
  return 4096 + 64 * m + 64 * n + 72 * n + 160 * rows;
}

// Spill files live flat in one directory, so the client-chosen session name
// must be made path-safe: alphanumerics, '-' and '_' pass through, every
// other byte becomes %XX. Injective, so distinct names cannot collide.
std::string PathSafe(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (plain) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out.append(buf);
    }
  }
  return out;
}

}  // namespace

std::string SessionCache::SpillPath(const std::string& name) const {
  return opt_.spill_dir + "/" + PathSafe(name) + ".ckpt";
}

Strand* SessionCache::StrandFor(const std::string& name) {
  MutexLock lock(mu_);
  Entry& entry = entries_[name];
  if (entry.strand == nullptr) {
    entry.strand = std::make_unique<Strand>(pool_);
    ++stats_.known;
  }
  return entry.strand.get();
}

void SessionCache::Install(const std::string& name,
                           std::unique_ptr<EcoSession> session) {
  const std::size_t bytes = ApproxLiveBytes(*session);
  bool had_spill = false;
  {
    MutexLock lock(mu_);
    Entry& entry = entries_[name];
    LUBT_ASSERT(entry.strand != nullptr && !entry.busy);
    if (entry.session != nullptr) {
      resident_bytes_ -= entry.bytes;
      --resident_;
    }
    if (entry.spilled) {
      --stats_.spilled;
      had_spill = true;
    }
    entry.session = std::move(session);
    entry.spilled = false;
    entry.busy = true;
    entry.bytes = bytes;
    entry.touch = ++clock_;
    resident_bytes_ += bytes;
    ++resident_;
  }
  // A reopen overwrites any stale spilled state; the file is dead either
  // way and removing it outside the lock keeps the cache mutex I/O-free
  // on this path.
  if (had_spill) std::remove(SpillPath(name).c_str());
}

Result<EcoSession*> SessionCache::Acquire(const std::string& name) {
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end() ||
        (it->second.session == nullptr && !it->second.spilled)) {
      return Status::NotFound("no session named '" + name + "'");
    }
    Entry& entry = it->second;
    LUBT_ASSERT(!entry.busy);  // per-session strand serialization
    entry.busy = true;
    if (entry.session != nullptr) return entry.session.get();
    // Spilled: reserve the entry (busy), restore outside the lock so other
    // sessions keep flowing during file I/O + model reconstruction.
  }

  const std::string path = SpillPath(name);
  Result<EcoCheckpoint> loaded = LoadCheckpoint(path);
  std::unique_ptr<EcoSession> restored;
  Status error;
  if (!loaded.ok()) {
    error = loaded.status();
  } else {
    Result<std::unique_ptr<EcoSession>> session =
        EcoSession::Restore(std::move(*loaded), opt_.eco);
    if (!session.ok()) {
      error = session.status();
    } else {
      restored = std::move(*session);
    }
  }

  MutexLock lock(mu_);
  Entry& entry = entries_[name];
  if (restored == nullptr) {
    entry.busy = false;
    return Status::Internal("restore of session '" + name +
                            "' failed: " + error.ToString());
  }
  entry.bytes = ApproxLiveBytes(*restored);
  entry.session = std::move(restored);
  entry.spilled = false;
  --stats_.spilled;
  resident_bytes_ += entry.bytes;
  ++resident_;
  ++stats_.restores;
  // The live session now owns the state; the spill file is stale the
  // moment an edit lands, so drop it eagerly.
  std::remove(path.c_str());
  return entry.session.get();
}

void SessionCache::Release(const std::string& name) {
  MutexLock lock(mu_);
  const auto it = entries_.find(name);
  LUBT_ASSERT(it != entries_.end() && it->second.busy);
  it->second.busy = false;
  it->second.touch = ++clock_;
  EnforceBudgetLocked();
}

Status SessionCache::Close(const std::string& name) {
  bool had_state = false;
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) {
      Entry& entry = it->second;
      LUBT_ASSERT(!entry.busy);
      if (entry.session != nullptr) {
        resident_bytes_ -= entry.bytes;
        --resident_;
        entry.session.reset();
        had_state = true;
      }
      if (entry.spilled) {
        entry.spilled = false;
        --stats_.spilled;
        had_state = true;
      }
      entry.bytes = 0;
    }
  }
  std::remove(SpillPath(name).c_str());
  if (!had_state) return Status::NotFound("no session named '" + name + "'");
  return Status::Ok();
}

SessionCacheStats SessionCache::Stats() {
  MutexLock lock(mu_);
  SessionCacheStats out = stats_;
  out.resident = resident_;
  return out;
}

void SessionCache::EnforceBudgetLocked() {
  // Evict least-recently-used idle sessions until both budgets hold. The
  // spill write happens under the cache mutex: eviction must be atomic
  // against a concurrent Acquire of the same entry. Evictions are not rare
  // under cyclic traffic — perfbench serve_eco (32 sessions, 8 slots)
  // evicts once per edit — but the write is cheap enough to keep here:
  // per edit there (Release, 4-vCPU host) it holds the mutex 0.15 ms
  // (0.31 ms with the former istringstream codec), and Release waits
  // 0.035 ms for it (0.10 ms before). Moving it out of the lock could save
  // at most that wait.
  for (;;) {
    const bool over_entries = resident_ > opt_.max_resident;
    const bool over_bytes = resident_bytes_ > opt_.max_resident_bytes;
    if (!over_entries && !over_bytes) return;
    std::map<std::string, Entry>::iterator victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.session == nullptr || it->second.busy) continue;
      if (victim == entries_.end() ||
          it->second.touch < victim->second.touch) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything pinned; back off
    Entry& entry = victim->second;
    const EcoCheckpoint checkpoint = entry.session->Checkpoint();
    const Status stored = StoreCheckpoint(checkpoint, SpillPath(victim->first));
    if (!stored.ok()) {
      // Spill target unusable (disk full, dir removed): keep the session
      // live rather than lose state; count it and stop trying this round.
      ++stats_.eviction_failures;
      return;
    }
    resident_bytes_ -= entry.bytes;
    --resident_;
    entry.session.reset();
    entry.spilled = true;
    ++stats_.spilled;
    ++stats_.evictions;
  }
}

}  // namespace lubt
