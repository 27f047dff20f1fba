// Shared, immutable prompt token ids (ctest -L prefix).
//
// The contracts under test: copying a TokenIds (or a Request, or a whole
// trace) shares the id buffer and cannot allocate; an empty
// value holds no buffer; every turn of a generated session is a prefix
// view of one per-session buffer; and the ids themselves are exactly the
// ones the generator has always produced (a digest recorded before ids
// became shared).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "serving/request.h"
#include "serving/token_ids.h"
#include "serving/trace.h"

namespace turbo {
namespace {

using serving::Request;
using serving::TokenIds;
using serving::TraceConfig;

// Copying cannot allocate: an allocation could throw std::bad_alloc, and
// these copies cannot throw. A Request whose ids were a std::vector could.
static_assert(std::is_nothrow_copy_constructible_v<TokenIds>);
static_assert(std::is_nothrow_copy_assignable_v<TokenIds>);
static_assert(std::is_nothrow_copy_constructible_v<Request>);

TEST(TokenIdsTest, ReadsLikeTheVectorItWasBuiltFrom) {
  const std::vector<std::int32_t> v = {5, 8, 13, 21};
  const TokenIds ids = v;
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_FALSE(ids.empty());
  EXPECT_EQ(ids[2], 13);
  EXPECT_EQ(std::vector<std::int32_t>(ids.begin(), ids.end()), v);
  EXPECT_EQ(ids, (TokenIds{5, 8, 13, 21}));
  EXPECT_FALSE(ids == (TokenIds{5, 8, 13}));
  EXPECT_FALSE(ids == (TokenIds{5, 8, 13, 22}));
}

TEST(TokenIdsTest, CopiesAndPrefixesShareStorage) {
  const TokenIds ids = std::vector<std::int32_t>{1, 2, 3, 4, 5, 6};
  const TokenIds copy = ids;
  const TokenIds head = ids.prefix(3);
  Request r;
  r.prompt_ids = ids;
  const Request r2 = r;
  EXPECT_EQ(copy.data(), ids.data());
  EXPECT_EQ(head.data(), ids.data());
  EXPECT_EQ(r2.prompt_ids.data(), ids.data());
  EXPECT_EQ(head, (TokenIds{1, 2, 3}));
  EXPECT_EQ(ids.prefix(6), ids);
  EXPECT_THROW((void)ids.prefix(7), CheckError);
}

TEST(TokenIdsTest, EmptyValuesHoldNoBuffer) {
  const TokenIds none;
  const TokenIds from_empty = std::vector<std::int32_t>{};
  const TokenIds zero = none.prefix(0);
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_EQ(from_empty.data(), nullptr);
  EXPECT_TRUE(zero.empty());
  EXPECT_EQ(none, zero);
  EXPECT_EQ(none.begin(), none.end());
  // A zero-length prefix of a real buffer does not keep it alive.
  EXPECT_EQ((TokenIds{1, 2}).prefix(0).data(), nullptr);
}

TraceConfig session_trace() {
  TraceConfig t;
  t.arrival_rate = 4.0;
  t.duration_s = 60.0;
  t.max_prompt = 2048;
  t.seed = 2024;
  t.shared_prefix_tokens = 256;
  t.shared_prefix_fraction = 0.6;
  t.session_turns = 5;
  t.session_gap_s = 2.0;
  t.agentic_fraction = 0.3;
  return t;
}

TEST(SessionIdsTest, EveryTurnOfASessionViewsOneBuffer) {
  const TraceConfig cfg = session_trace();
  const std::vector<Request> trace = serving::generate_trace(cfg);
  // A session's first fresh id (ids below shared_prefix_tokens are the
  // shared system prompt) names it: fresh ids are unique to one session.
  std::map<std::int32_t, const std::int32_t*> buffer_of;
  std::set<const std::int32_t*> buffers;
  const auto shared = static_cast<std::int32_t>(cfg.shared_prefix_tokens);
  for (const Request& r : trace) {
    ASSERT_EQ(r.prompt_ids.size(), r.prompt_tokens);
    const std::size_t first_fresh =
        r.prompt_ids[0] == 0 ? cfg.shared_prefix_tokens : 0;
    const std::int32_t session = r.prompt_ids[first_fresh];
    ASSERT_GE(session, shared);
    const auto [it, fresh] = buffer_of.emplace(session, r.prompt_ids.data());
    if (fresh) {
      EXPECT_TRUE(buffers.insert(r.prompt_ids.data()).second);
    } else {
      EXPECT_EQ(it->second, r.prompt_ids.data()) << "request " << r.id;
    }
  }
  // Multi-turn sessions exist, so some requests did share a buffer.
  EXPECT_LT(buffer_of.size(), trace.size());
  EXPECT_GT(buffer_of.size(), 100u);
}

TEST(SessionIdsTest, CopyingATraceCopiesNoIds) {
  const std::vector<Request> trace = serving::generate_trace(session_trace());
  const std::vector<Request> copy = trace;
  ASSERT_EQ(copy.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(copy[i].prompt_ids.data(), trace[i].prompt_ids.data());
  }
}

// FNV-1a over every request's id, length and token ids, recorded from the
// generator as it was when each turn still carried its own id vector.
TEST(SessionIdsTest, SeededSessionIdsMatchTheRecordedDigest) {
  const std::vector<Request> trace = serving::generate_trace(session_trace());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  std::size_t ids = 0;
  for (const Request& r : trace) {
    mix(r.id);
    mix(r.prompt_tokens);
    mix(r.prompt_ids.size());
    for (const std::int32_t t : r.prompt_ids) {
      mix(static_cast<std::uint32_t>(t));
    }
    ids += r.prompt_ids.size();
  }
  EXPECT_EQ(trace.size(), 1140u);
  EXPECT_EQ(ids, 1099673u);
  EXPECT_EQ(h, 0x7919b1fe7347630cull);
}

}  // namespace
}  // namespace turbo
