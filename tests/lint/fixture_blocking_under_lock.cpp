// femtolint-expect: blocking-call-under-lock
//
// Blocking while a lockset is non-empty, two ways:
//
//   * retry_push() sleeps while holding a function-local mutex — any
//     thread contending for that mutex stalls for the whole back-off;
//   * wait_ready() waits on a condition variable that releases the INNER
//     mutex only: the outer list_mu_ stays held across the block, which
//     is the exact shape that deadlocks once another thread needs
//     list_mu_ to deliver the notification.
//
// arm() shows the compliant wait: the cv releases the only held mutex for
// the duration of the block, so the effective lockset is empty.  Fixtures
// are lint inputs, not build inputs.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace femto {

void retry_push() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lk(mu);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(2));  // blocking-call-under-lock
}

class BatchGate {
 public:
  void wait_ready() {
    std::unique_lock<std::mutex> outer(list_mu_);
    std::unique_lock<std::mutex> inner(mu_);
    cv_.wait(inner);  // releases mu_ but NOT list_mu_: finding
  }

  void arm() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk);  // fine: the wait releases the only held mutex
  }

 private:
  std::mutex list_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace femto
