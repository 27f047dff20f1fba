#include "kvcache/retained_pool.h"

#include "common/check.h"

namespace turbo {

void RetainedPool::park(PageId page) {
  const bool inserted = tick_of_.emplace(page, clock_).second;
  TURBO_CHECK_MSG(inserted, "page " << page << " is already retained");
  by_tick_.emplace(clock_, page);
  ++clock_;
}

bool RetainedPool::remove(PageId page) {
  const auto it = tick_of_.find(page);
  if (it == tick_of_.end()) return false;
  by_tick_.erase({it->second, page});
  tick_of_.erase(it);
  return true;
}

PageId RetainedPool::oldest() const {
  TURBO_CHECK(!by_tick_.empty());
  return by_tick_.begin()->second;
}

PageId RetainedPool::lowest() const {
  TURBO_CHECK(!tick_of_.empty());
  return tick_of_.begin()->first;
}

}  // namespace turbo
