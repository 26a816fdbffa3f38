// Allocation guard for the flat storage of the disk sections: `Apl` and
// `Hicl` keep every row and list in one image buffer, so building them,
// or loading a snapshot of the index, makes a small number of heap
// allocations whatever the number of trajectories or activities. One
// vector per row or per list would make thousands here.
//
// The global `operator new` of this binary counts allocations while a
// guard is open; everything else is the ordinary heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/index/gat_index.h"
#include "gat/index/snapshot.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every unaligned form is replaced, so no allocation of this binary pairs
// a sanitizer's `new` with this file's `free`.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gat {
namespace {

/// Every allocation `fn` makes, kept or scratch.
template <typename Fn>
size_t AllocationsOf(Fn&& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

constexpr size_t kMaxAllocations = 64;

/// The seeded 2,000-trajectory city every case builds from, generated
/// before any counting starts.
const Dataset& City() {
  static const Dataset city = GenerateCity(CityProfile::Testing(2000, 43));
  return city;
}

const GatConfig kConfig{.depth = 6, .memory_levels = 4, .tas_width = 2};

TEST(IndexStorage, AplBuildAllocatesAConstantNumberOfTimes) {
  const Dataset& city = City();
  std::unique_ptr<Apl> apl;
  const size_t allocations =
      AllocationsOf([&] { apl = std::make_unique<Apl>(city); });
  ASSERT_EQ(apl->num_trajectories(), city.size());
  EXPECT_LE(allocations, kMaxAllocations);
}

TEST(IndexStorage, HiclBuildAllocatesAConstantNumberOfTimes) {
  const Dataset& city = City();
  const GridGeometry grid(city.bounding_box(), kConfig.depth);
  std::vector<std::vector<uint32_t>> leaf_cells(
      city.num_distinct_activities());
  for (const auto& tr : city.trajectories()) {
    for (const auto& point : tr.points()) {
      for (ActivityId a : point.activities) {
        leaf_cells[a].push_back(grid.LeafCode(point.location));
      }
    }
  }
  for (auto& cells : leaf_cells) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  }
  ASSERT_GT(leaf_cells.size(), 16u);
  std::unique_ptr<Hicl> hicl;
  const size_t allocations = AllocationsOf([&] {
    hicl = std::make_unique<Hicl>(kConfig.depth, kConfig.memory_levels,
                                  std::move(leaf_cells));
  });
  ASSERT_EQ(hicl->num_activities(), city.num_distinct_activities());
  EXPECT_LE(allocations, kMaxAllocations);
}

TEST(IndexStorage, LoadSnapshotAllocatesAConstantNumberOfTimes) {
  const Dataset& city = City();
  const GatIndex built(city, kConfig);
  const std::string path = ::testing::TempDir() + "/index_storage.gats";
  ASSERT_TRUE(SaveSnapshot(built, path));
  std::unique_ptr<GatIndex> loaded;
  const size_t allocations =
      AllocationsOf([&] { loaded = LoadSnapshot(path, &kConfig); });
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->apl().num_trajectories(), city.size());
  EXPECT_LE(allocations, kMaxAllocations);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gat
