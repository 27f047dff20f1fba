// Retained-page pool for the prefix-sharing cache.
//
// A page the radix index still names is not freed when its last
// reference dies: it is parked here so a later prompt with the same
// prefix can attach it again. Under page pressure the allocator reclaims
// the page parked longest ago. Each park stamps the page with the next
// tick of a retention clock; ticks are unique, so the oldest page is
// always well defined and a (tick, page) ordered set pops it in
// O(log n) instead of scanning the pool.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <utility>

#include "kvcache/page_allocator.h"

namespace turbo {

class RetainedPool {
 public:
  std::size_t size() const { return tick_of_.size(); }
  bool empty() const { return tick_of_.empty(); }

  // Park `page` (it must not be parked already) as the newest entry.
  void park(PageId page);
  // Take `page` out of the pool; false when it was not parked.
  bool remove(PageId page);
  // The page parked longest ago (the reclaim victim); pool non-empty.
  PageId oldest() const;
  // The smallest parked page id; pool non-empty.
  PageId lowest() const;

 private:
  std::map<PageId, std::size_t> tick_of_;
  std::set<std::pair<std::size_t, PageId>> by_tick_;
  std::size_t clock_ = 0;
};

}  // namespace turbo
