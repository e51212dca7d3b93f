// Bit-identical parallel vs serial across every CodecEngine data path,
// thread counts {1, 2, 3, 8} and a spread of chunk sizes (including
// sub-cache-line and non-64-multiple ones that exercise slicing tails).
// Runs under each GALLOPER_GF_ISA backend via the ctest matrix.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "codes/engine.h"
#include "core/galloper.h"
#include "util/bytes.h"
#include "util/check.h"

namespace galloper::codes {
namespace {

Buffer random_bytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Buffer out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

class EngineParallelTest
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t threads() const { return std::get<0>(GetParam()); }
  size_t chunk() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineParallelTest,
    testing::Combine(testing::Values(1, 2, 3, 8),
                     testing::Values(1, 7, 64, 65, 1024, 10000)));

TEST_P(EngineParallelTest, AllPathsMatchSerial) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const Buffer file = random_bytes(e.num_chunks() * chunk(), 42);

  // encode
  const auto blocks_s = e.encode(file);
  const auto blocks_p = e.encode(file, threads());
  ASSERT_EQ(blocks_p.size(), blocks_s.size());
  for (size_t b = 0; b < blocks_s.size(); ++b)
    EXPECT_EQ(blocks_p[b], blocks_s[b]) << "block " << b;

  // decode / decode_fast from a degraded view (blocks 0 and 2 lost).
  std::map<size_t, ConstByteSpan> view;
  for (size_t b = 0; b < blocks_s.size(); ++b)
    if (b != 0 && b != 2) view.emplace(b, blocks_s[b]);
  const auto dec_s = e.decode(view);
  const auto dec_p = e.decode(view, threads());
  ASSERT_TRUE(dec_s.has_value());
  ASSERT_TRUE(dec_p.has_value());
  EXPECT_EQ(*dec_p, *dec_s);
  EXPECT_EQ(*dec_s, file);
  const auto fast_s = e.decode_fast(view);
  const auto fast_p = e.decode_fast(view, threads());
  ASSERT_TRUE(fast_p.has_value());
  EXPECT_EQ(*fast_p, *fast_s);
  EXPECT_EQ(*fast_p, file);

  // repair of block 0 from its preferred helper set.
  std::map<size_t, ConstByteSpan> helpers;
  for (size_t h : code.repair_helpers(0)) helpers.emplace(h, blocks_s[h]);
  const auto rep_s = e.repair_block(0, helpers);
  const auto rep_p = e.repair_block(0, helpers, threads());
  ASSERT_TRUE(rep_s.has_value());
  ASSERT_TRUE(rep_p.has_value());
  EXPECT_EQ(*rep_p, *rep_s);
  EXPECT_EQ(*rep_p, blocks_s[0]);
}

TEST_P(EngineParallelTest, ReadRangeMatchesSerial) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const size_t file_bytes = e.num_chunks() * chunk();
  const Buffer file = random_bytes(file_bytes, 7);
  const auto blocks = e.encode(file);

  std::map<size_t, ConstByteSpan> view;  // block 1 lost → some chunks rebuilt
  for (size_t b = 0; b < blocks.size(); ++b)
    if (b != 1) view.emplace(b, blocks[b]);

  // Ranges straddling chunk and slice boundaries, plus whole-file.
  const std::pair<size_t, size_t> ranges[] = {
      {0, file_bytes},
      {0, 1},
      {file_bytes - 1, 1},
      {file_bytes / 3, file_bytes / 2 - file_bytes / 3 + 1},
      {chunk() / 2, std::min(file_bytes - chunk() / 2, chunk() + 1)},
  };
  for (const auto& [off, len] : ranges) {
    SCOPED_TRACE(testing::Message() << "range [" << off << ", " << off + len
                                    << ")");
    const auto serial = e.read_range(view, off, len);
    const auto par = e.read_range(view, off, len, threads());
    ASSERT_TRUE(serial.has_value());
    ASSERT_TRUE(par.has_value());
    EXPECT_EQ(*par, *serial);
    const Buffer expect(file.begin() + off, file.begin() + off + len);
    EXPECT_EQ(*serial, expect);
  }
}

TEST_P(EngineParallelTest, UpdateChunkMatchesSerial) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const Buffer file = random_bytes(e.num_chunks() * chunk(), 99);
  auto blocks_s = e.encode(file);
  auto blocks_p = e.encode(file);

  const size_t target = e.num_chunks() / 2;
  const Buffer fresh = random_bytes(chunk(), 1000 + chunk());
  const auto touched_s = e.update_chunk(blocks_s, target, fresh);
  const auto touched_p =
      e.update_chunk(blocks_p, target, fresh, threads());
  EXPECT_EQ(touched_p, touched_s);
  for (size_t b = 0; b < blocks_s.size(); ++b)
    EXPECT_EQ(blocks_p[b], blocks_s[b]) << "block " << b;

  // No-op update: identical data ⇒ empty touched set, both modes.
  Buffer same(fresh);
  EXPECT_TRUE(e.update_chunk(blocks_p, target, same, threads())
                  .empty());
}

TEST(EngineParallelErrors, ZeroThreadsRejectedEverywhere) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const Buffer file = random_bytes(e.num_chunks() * 64, 5);
  auto blocks = e.encode(file);
  std::map<size_t, ConstByteSpan> view;
  for (size_t b = 0; b < blocks.size(); ++b) view.emplace(b, blocks[b]);

  EXPECT_THROW(e.encode(file, 0), CheckError);
  EXPECT_THROW(e.decode(view, 0), CheckError);
  EXPECT_THROW(e.decode_fast(view, 0), CheckError);
  EXPECT_THROW(e.repair_block(0, view, 0), CheckError);
  EXPECT_THROW(e.read_range(view, 0, 8, 0), CheckError);
  EXPECT_THROW(e.update_chunk(blocks, 0, Buffer(64), 0), CheckError);
}

TEST(EngineParallelErrors, KeepsSerialSizeChecks) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  // Non-multiple file size must still throw regardless of thread count.
  EXPECT_THROW(e.encode(Buffer(3), 2), CheckError);
  EXPECT_THROW(e.encode(Buffer(3), 8), CheckError);
}

}  // namespace
}  // namespace galloper::codes
