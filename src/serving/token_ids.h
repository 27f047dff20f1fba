// Immutable prompt token ids that copies of a request share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace turbo::serving {

// A refcounted const buffer plus a length: a value is a prefix view of
// storage other values may share. Copying bumps a refcount and copies no
// ids, so the trace, the engine's request table, the fleet's union and
// every benchmark round share one buffer per session; generate_trace
// stores a session's history once and hands each turn a prefix of it.
// There are no element mutators. An empty value holds no buffer.
class TokenIds {
 public:
  using value_type = std::int32_t;
  using const_iterator = const std::int32_t*;
  using iterator = const_iterator;

  TokenIds() = default;
  // Adopts `ids` (no copy for an rvalue). Implicit, so a vector or a
  // braced list assigns straight to a Request's prompt_ids.
  TokenIds(std::vector<std::int32_t> ids) : size_(ids.size()) {
    if (ids.empty()) return;
    buf_ = std::make_shared<const std::vector<std::int32_t>>(std::move(ids));
  }
  TokenIds(std::initializer_list<std::int32_t> ids)
      : TokenIds(std::vector<std::int32_t>(ids)) {}

  // The first `n` ids, sharing this value's buffer.
  TokenIds prefix(std::size_t n) const {
    TURBO_CHECK(n <= size_);
    TokenIds p;
    if (n > 0) {
      p.buf_ = buf_;
      p.size_ = n;
    }
    return p;
  }

  const std::int32_t* data() const { return buf_ ? buf_->data() : nullptr; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::int32_t operator[](std::size_t i) const {
    TURBO_DCHECK(i < size_);
    return data()[i];
  }

  friend bool operator==(const TokenIds& a, const TokenIds& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::shared_ptr<const std::vector<std::int32_t>> buf_;
  std::size_t size_ = 0;
};

}  // namespace turbo::serving
