#include "comm/communicator.hpp"

#include <cstring>
#include <exception>
#include <thread>

#include "obs/trace.hpp"

namespace femto::comm {

void Mailbox::push(Message m) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(m));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int src, int tag) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((src == -1 || it->src == src) && it->tag == tag) {
        Message m = std::move(*it);
        queue_.erase(it);
        return m;
      }
    }
    cv_.wait(lk);
  }
}

std::optional<Message> Mailbox::pop_for(int src, int tag,
                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((src == -1 || it->src == src) && it->tag == tag) {
        Message m = std::move(*it);
        queue_.erase(it);
        return m;
      }
    }
    if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
      // One last scan in case the notification raced the deadline.
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if ((src == -1 || it->src == src) && it->tag == tag) {
          Message m = std::move(*it);
          queue_.erase(it);
          return m;
        }
      }
      return std::nullopt;
    }
  }
}

int RankHandle::size() const { return world_->size(); }

void RankHandle::send(int dest, int tag, std::vector<std::byte> payload) {
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  // Causal link: stamp a flow id and record the producer span so the
  // matching recv's wait renders as one arrow in the merged trace.  One
  // relaxed load when tracing is off.
  if (obs::trace_enabled()) {
    const std::int64_t t0 = obs::uptime_ns();
    const std::uint64_t flow = obs::next_flow_id();
    m.flow_id = flow;
    world_->mailbox(dest).push(std::move(m));
    obs::trace_flow_out("comm", "send", t0, flow);
    return;
  }
  world_->mailbox(dest).push(std::move(m));
}

Message RankHandle::recv(int src, int tag) {
  if (obs::trace_enabled()) {
    const std::int64_t t0 = obs::uptime_ns();
    Message m = world_->mailbox(rank_).pop(src, tag);
    if (m.flow_id != 0) obs::trace_flow_in("comm", "recv", t0, m.flow_id);
    return m;
  }
  return world_->mailbox(rank_).pop(src, tag);
}

std::optional<Message> RankHandle::recv_for(
    int src, int tag, std::chrono::milliseconds timeout) {
  if (obs::trace_enabled()) {
    const std::int64_t t0 = obs::uptime_ns();
    std::optional<Message> m =
        world_->mailbox(rank_).pop_for(src, tag, timeout);
    if (m && m->flow_id != 0)
      obs::trace_flow_in("comm", "recv", t0, m->flow_id);
    return m;
  }
  return world_->mailbox(rank_).pop_for(src, tag, timeout);
}

void RankHandle::barrier() { world_->barrier_wait(); }

namespace {
// Internal tags for the collective implementations; chosen high so user
// tags (small non-negative ints) never collide.
constexpr int kTagAllreduce = 1 << 28;
constexpr int kTagBroadcast = (1 << 28) + 1;
}  // namespace

double RankHandle::allreduce_sum(double x) {
  // Gather to rank 0, sum in rank order (deterministic), broadcast back.
  // The root receives before it scatters, and the non-roots send
  // unconditionally first, so every recv on the root has a matching send
  // in flight and no rank waits on a message nobody sends (rendezvous
  // transports included).
  if (rank_ == 0) {
    double sum = x;
    for (int r = 1; r < size(); ++r) {
      auto v = recv_vec<double>(r, kTagAllreduce);
      sum += v[0];
    }
    for (int r = 1; r < size(); ++r)
      send_vec<double>(r, kTagAllreduce, {sum});
    return sum;
  }
  send_vec<double>(0, kTagAllreduce, {x});
  auto v = recv_vec<double>(0, kTagAllreduce);
  return v[0];
}

double RankHandle::broadcast(double x, int root) {
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send_vec<double>(r, kTagBroadcast, {x});
    return x;
  }
  auto v = recv_vec<double>(root, kTagBroadcast);
  return v[0];
}

std::vector<std::unique_ptr<Mailbox>> World::make_mailboxes(int n) {
  std::vector<std::unique_ptr<Mailbox>> boxes;
  boxes.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) boxes.push_back(std::make_unique<Mailbox>());
  return boxes;
}

World::World(int n_ranks)
    : n_ranks_(n_ranks), mailboxes_(make_mailboxes(n_ranks)) {}

void World::barrier_wait() {
  std::unique_lock<std::mutex> lk(bar_mu_);
  const std::uint64_t gen = bar_gen_;
  if (++bar_count_ == n_ranks_) {
    bar_count_ = 0;
    ++bar_gen_;
    bar_cv_.notify_all();
    return;
  }
  bar_cv_.wait(lk, [&] { return bar_gen_ != gen; });
}

void World::run(const std::function<void(RankHandle&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n_ranks_));
  threads.reserve(static_cast<size_t>(n_ranks_));
  for (int r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      // Every span and log line this rank thread records is tagged with
      // the rank, so multi-rank traces merge into per-rank Chrome process
      // rows and flamegraph roots.
      obs::set_trace_rank(r);
      RankHandle h(this, r);
      try {
        fn(h);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void run_ranks(int n, const std::function<void(RankHandle&)>& fn) {
  World world(n);
  world.run(fn);
}

}  // namespace femto::comm
