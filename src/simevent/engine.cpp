#include "simevent/engine.hpp"

#include <stdexcept>

namespace femto::sim {

void Engine::schedule_at(Time t, std::function<void()> fn) {
  if (t < now_)
    throw std::invalid_argument("Engine: cannot schedule in the past");
  queue_.push(Event{t, seq_++, std::move(fn)});
}

Time Engine::run() {
  while (!queue_.empty()) {
    // Moving out of a priority_queue requires the const_cast dance; the
    // element is popped immediately after, so the heap invariant the
    // const protects is never observed in the moved-from state.
    // const_cast for the priority_queue move-out; popped immediately.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.t;
    ++processed_;
    ev.fn();
  }
  return now_;
}

Time Engine::run_until(Time t_end) {
  while (!queue_.empty() && queue_.top().t <= t_end) {
    // const_cast for the priority_queue move-out; popped immediately.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.t;
    ++processed_;
    ev.fn();
  }
  now_ = t_end;
  return now_;
}

}  // namespace femto::sim
