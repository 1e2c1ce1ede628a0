// Unit tests for the bump arena, ArenaVec, and the global string interner.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/arena.h"
#include "util/interner.h"

namespace wmp::util {
namespace {

TEST(ArenaTest, AlignmentRespected) {
  Arena arena(512);
  for (size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
  }
}

TEST(ArenaTest, ResetIsGrowOnly) {
  Arena arena(256);
  void* first = arena.Allocate(64, 8);
  // Fill past several chunk growths.
  for (int i = 0; i < 100; ++i) arena.Allocate(128, 8);
  const size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 256u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Same storage comes back: no new chunks, and the first allocation lands
  // on the same address.
  void* again = arena.Allocate(64, 8);
  EXPECT_EQ(again, first);
  for (int i = 0; i < 100; ++i) arena.Allocate(128, 8);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, OversizedAllocationGetsOwnChunk) {
  Arena arena(256);
  char* big = arena.AllocateArray<char>(1 << 20);
  big[0] = 'x';
  big[(1 << 20) - 1] = 'y';
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
}

TEST(ArenaTest, NewConstructsObjects) {
  struct Node {
    int a;
    double b;
  };
  Arena arena;
  Node* n = arena.New<Node>(Node{7, 2.5});
  EXPECT_EQ(n->a, 7);
  EXPECT_EQ(n->b, 2.5);
}

TEST(ArenaTest, CopyStringSurvivesSource) {
  Arena arena;
  std::string_view v;
  {
    std::string s = "transient-identifier-text";
    v = arena.CopyString(s);
  }
  EXPECT_EQ(v, "transient-identifier-text");
  EXPECT_EQ(arena.CopyString("").data(), nullptr);
}

TEST(ArenaVecTest, GrowthPreservesContents) {
  Arena arena;
  ArenaVec<int> v(&arena);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 999);
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 499500);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);
  EXPECT_EQ(v[0], 5);
}

TEST(ArenaVecTest, ReserveThenFill) {
  Arena arena;
  ArenaVec<const char*> v;
  v.set_arena(&arena);
  v.reserve(16);
  const size_t before = arena.bytes_allocated();
  for (int i = 0; i < 16; ++i) v.push_back("x");
  EXPECT_EQ(arena.bytes_allocated(), before);  // no regrowth
}

TEST(InternerTest, CanonicalPointerReturned) {
  const std::string_view a = Intern("store_sales");
  std::string copy = "store_";
  copy += "sales";  // different buffer, same contents
  const std::string_view b = Intern(copy);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.data(), b.data());  // same canonical storage
  EXPECT_EQ(Intern("").size(), 0u);
}

TEST(InternerTest, ConcurrentInterningConverges) {
  constexpr int kStrings = 200;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string_view>> views(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &views] {
      for (int i = 0; i < kStrings; ++i) {
        views[t].push_back(
            Intern("col_" + std::to_string(i % 50) + "_shared"));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 4; ++t) {
    for (int i = 0; i < kStrings; ++i) {
      ASSERT_EQ(views[0][i % kStrings].data(), views[t][i].data());
    }
  }
}

}  // namespace
}  // namespace wmp::util
