#pragma once
// femtocomm: a message-passing layer with MPI semantics, executed by
// threads within one process.
//
// The paper's application runs as MPI ranks across CORAL nodes; our
// substitution (DESIGN.md) maps each rank to a thread with a tagged
// mailbox.  The API is shaped after the dozen MPI calls a stencil code
// actually uses: point-to-point send/recv with tags, barrier, allreduce,
// broadcast.  Everything above this layer (halo exchange, process grids,
// the distributed Dirac operator, the job manager's lump connection
// protocol) is decomposition-correct in the same way an MPI code is: the
// numerics cannot tell the difference.
//
// femtolint's blocking-call-under-lock rule (DESIGN.md §8) treats every
// call of these primitives as blocking: none may be reached with a mutex
// held.  Pairing sends with receives is the caller's protocol; the
// multi-rank tests (test_comm, the distributed dslash and jobmgr suites)
// are what check it.

#include <chrono>
#include <condition_variable>

#include "core/check.hpp"
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace femto::comm {

/// A message: tag + opaque payload.  flow_id is the femtoscope causal
/// link (DESIGN.md §15): send() stamps a fresh id and records the
/// producer span; recv() consumes it and records the matching wait span,
/// so the merged Chrome trace draws the pair as one arrow.  0 = untraced.
struct Message {
  int src = -1;
  int tag = 0;
  std::uint64_t flow_id = 0;
  std::vector<std::byte> payload;
};

/// Per-rank mailbox with blocking tagged receive.
class Mailbox {
 public:
  void push(Message m);
  /// Blocks until a message with matching (src, tag) is available and
  /// removes it.  src == -1 matches any source (MPI_ANY_SOURCE).
  Message pop(int src, int tag);

  /// Like pop but gives up after @p timeout; nullopt on expiry (the
  /// "grace period" primitive mpi_jm uses to ignore lumps that never
  /// connect).
  std::optional<Message> pop_for(int src, int tag,
                                 std::chrono::milliseconds timeout);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_ FEMTO_GUARDED_BY(mu_);
};

class World;

/// A rank's endpoint into the world: the object a "rank function" receives.
class RankHandle {
 public:
  RankHandle(World* world, int rank) : world_(world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const;

  /// Point-to-point send (copies the payload; completes immediately, like
  /// a buffered MPI_Send).
  void send(int dest, int tag, std::vector<std::byte> payload);

  /// Typed convenience: send a span of trivially-copyable elements.
  template <typename T>
  void send_vec(int dest, int tag, const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> p(v.size() * sizeof(T));
    std::memcpy(p.data(), v.data(), p.size());
    send(dest, tag, std::move(p));
  }

  /// Blocking receive of a message with matching source and tag.
  Message recv(int src, int tag);

  /// Timed receive; nullopt when nothing matching arrives in time.
  std::optional<Message> recv_for(int src, int tag,
                                  std::chrono::milliseconds timeout);

  template <typename T>
  std::vector<T> recv_vec(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv(src, tag);
    std::vector<T> v(m.payload.size() / sizeof(T));
    std::memcpy(v.data(), m.payload.data(), m.payload.size());
    return v;
  }

  /// Synchronise all ranks.
  void barrier();

  /// Sum-allreduce of a double across all ranks.
  double allreduce_sum(double x);

  /// Broadcast a value from root to all ranks.
  double broadcast(double x, int root);

 private:
  World* world_;
  int rank_;
};

/// The world: owns the mailboxes and the barrier. Create with the number of
/// ranks, then run a function per rank on its own thread.
class World {
 public:
  explicit World(int n_ranks);

  int size() const { return n_ranks_; }
  Mailbox& mailbox(int rank) { return *mailboxes_[static_cast<size_t>(rank)]; }

  /// Run fn(handle) on n_ranks threads; joins all before returning.
  /// Exceptions thrown by a rank are rethrown (first one wins).
  void run(const std::function<void(RankHandle&)>& fn);

  /// Barrier implementation (sense-reversing, reusable).
  void barrier_wait();

 private:
  static std::vector<std::unique_ptr<Mailbox>> make_mailboxes(int n);

  // Rank count and mailbox table are fixed at construction; each Mailbox
  // synchronises itself, so neither needs bar_mu_.
  const int n_ranks_;
  const std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex bar_mu_;
  std::condition_variable bar_cv_;
  int bar_count_ FEMTO_GUARDED_BY(bar_mu_) = 0;
  std::uint64_t bar_gen_ FEMTO_GUARDED_BY(bar_mu_) = 0;
};

/// Convenience: run an SPMD section with @p n ranks.
void run_ranks(int n, const std::function<void(RankHandle&)>& fn);

}  // namespace femto::comm
