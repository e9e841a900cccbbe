#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "dm/connectivity.h"
#include "dm/dm_node.h"
#include "dm/varint.h"
#include "common/rng.h"
#include "pm/cut_replay.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::Scene;

class ConnectivityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    conn_ = new std::vector<std::vector<VertexId>>(
        BuildConnectionLists(scene_->base, scene_->tree, scene_->sr));
  }
  static void TearDownTestSuite() {
    delete conn_;
    delete scene_;
  }
  static Scene* scene_;
  static std::vector<std::vector<VertexId>>* conn_;
};
Scene* ConnectivityTest::scene_ = nullptr;
std::vector<std::vector<VertexId>>* ConnectivityTest::conn_ = nullptr;

TEST_F(ConnectivityTest, ListsAreSymmetric) {
  for (VertexId u = 0; u < static_cast<VertexId>(conn_->size()); ++u) {
    for (VertexId v : (*conn_)[static_cast<size_t>(u)]) {
      const auto& back = (*conn_)[static_cast<size_t>(v)];
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u))
          << u << " -> " << v;
    }
  }
}

TEST_F(ConnectivityTest, ConnectedPairsHaveSimilarLod) {
  // "for any m' in L, m and m' have a similar LOD" (overlapping
  // intervals), and parent-child pairs can never be connected.
  const PmTree& tree = scene_->tree;
  for (VertexId u = 0; u < static_cast<VertexId>(conn_->size()); ++u) {
    const PmNode& nu = tree.node(u);
    for (VertexId v : (*conn_)[static_cast<size_t>(u)]) {
      const PmNode& nv = tree.node(v);
      EXPECT_LT(std::max(nu.e_low, nv.e_low),
                std::min(nu.e_high, nv.e_high))
          << u << " ~ " << v;
      EXPECT_NE(nu.parent, v);
      EXPECT_NE(nv.parent, u);
    }
  }
}

TEST_F(ConnectivityTest, CutEdgesMatchQuotientCutExactly) {
  // THE core Direct Mesh property: at any uniform LOD, the pairs of
  // cut nodes that list each other are exactly the edges of the
  // terrain approximation.
  const PmTree& tree = scene_->tree;
  for (double frac : {0.0, 0.01, 0.05, 0.15, 0.4, 0.75}) {
    const double e = frac * tree.max_lod();
    const QuotientCut cut =
        ComputeUniformCut(scene_->base, tree, tree.bounds(), e);
    const auto edge_list = cut.Edges();
    std::set<std::pair<VertexId, VertexId>> expected(edge_list.begin(),
                                                     edge_list.end());

    std::set<VertexId> alive(cut.vertices.begin(), cut.vertices.end());
    std::set<std::pair<VertexId, VertexId>> got;
    for (VertexId u : cut.vertices) {
      for (VertexId v : (*conn_)[static_cast<size_t>(u)]) {
        if (u < v && alive.count(v)) got.emplace(u, v);
      }
    }
    EXPECT_EQ(got, expected) << "at e = " << e;
  }
}

TEST_F(ConnectivityTest, SimilarLodMuchSmallerThanClosure) {
  const ConnectivityStats stats =
      ComputeConnectivityStats(scene_->base, scene_->tree, *conn_, 256);
  EXPECT_GT(stats.avg_similar_lod, 2.0);
  EXPECT_LT(stats.avg_similar_lod, 40.0);
  // The paper's Section 4 blow-up: the full closure is far larger.
  EXPECT_GT(stats.avg_total_connections, 2 * stats.avg_similar_lod);
  EXPECT_GT(stats.sampled_nodes, 0);
}

TEST(DmNodeTest, CodecRoundTrip) {
  DmNode n;
  n.id = 123456789;
  n.pos = Point3{1.5, -2.25, 77.125};
  n.e_low = 0.5;
  n.e_high = 9.75;
  n.parent = 42;
  n.child1 = 7;
  n.child2 = 8;
  n.wing1 = kInvalidVertex;
  n.wing2 = 99;
  n.connections = {1, 5, 7, 20000000000LL};

  std::vector<uint8_t> buf;
  n.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), n.EncodedSize());
  auto decoded_or = DmNode::Decode(buf.data(), static_cast<uint32_t>(buf.size()));
  ASSERT_TRUE(decoded_or.ok());
  const DmNode& d = decoded_or.value();
  EXPECT_EQ(d.id, n.id);
  EXPECT_EQ(d.pos, n.pos);
  EXPECT_EQ(d.e_low, n.e_low);
  EXPECT_EQ(d.e_high, n.e_high);
  EXPECT_EQ(d.parent, n.parent);
  EXPECT_EQ(d.child1, n.child1);
  EXPECT_EQ(d.child2, n.child2);
  EXPECT_EQ(d.wing1, n.wing1);
  EXPECT_EQ(d.wing2, n.wing2);
  EXPECT_EQ(d.connections, n.connections);
}

TEST(DmNodeTest, CodecPreservesInfiniteTop) {
  DmNode n;
  n.id = 1;
  n.e_high = std::numeric_limits<double>::infinity();
  std::vector<uint8_t> buf;
  n.EncodeTo(&buf);
  auto d = DmNode::Decode(buf.data(), static_cast<uint32_t>(buf.size()));
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isinf(d.value().e_high));
}

TEST(DmNodeTest, DecodeRejectsTruncation) {
  DmNode n;
  n.id = 1;
  n.connections = {2, 3};
  std::vector<uint8_t> buf;
  n.EncodeTo(&buf);
  EXPECT_FALSE(DmNode::Decode(buf.data(), 10).ok());
  EXPECT_FALSE(
      DmNode::Decode(buf.data(), static_cast<uint32_t>(buf.size() - 8)).ok());
}

TEST(DmNodeTest, IntervalPredicates) {
  DmNode n;
  n.e_low = 2.0;
  n.e_high = 5.0;
  EXPECT_TRUE(n.AliveAt(2.0));
  EXPECT_TRUE(n.AliveAt(4.999));
  EXPECT_FALSE(n.AliveAt(5.0));
  EXPECT_FALSE(n.AliveAt(1.999));
  EXPECT_TRUE(n.IntervalOverlaps(4.0, 10.0));
  EXPECT_TRUE(n.IntervalOverlaps(0.0, 2.0));
  EXPECT_FALSE(n.IntervalOverlaps(5.0, 10.0));  // e_high exclusive
}

// ---- varint hardening (GetVarint must reject every malformed input,
// never silently truncate) --------------------------------------------

TEST(VarintTest, RoundTripsEdgeValues) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384},
                     uint64_t{1} << 62, ~uint64_t{0}}) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    uint32_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint(buf.data(), static_cast<uint32_t>(buf.size()),
                          &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, RejectsEveryTruncatedPrefix) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, ~uint64_t{0});  // 10-byte encoding
  ASSERT_EQ(buf.size(), 10u);
  for (uint32_t cut = 0; cut < buf.size(); ++cut) {
    uint32_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(buf.data(), cut, &pos, &out)) << "cut " << cut;
  }
}

TEST(VarintTest, RejectsOverlongTenByteEncodings) {
  // 64 bits span at most 9*7+1: the 10th byte may only be 0x00 or
  // 0x01. Anything else would shift bits off the top of the u64 —
  // the seed decoder accepted these and silently truncated.
  uint8_t buf[11];
  for (int i = 0; i < 9; ++i) buf[i] = 0x80;
  for (int last = 0x02; last <= 0x7F; last += 0x3D) {
    buf[9] = static_cast<uint8_t>(last);
    uint32_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint(buf, 10, &pos, &out)) << "10th byte " << last;
  }
  // An 11-byte chain (10th byte keeps the continuation bit) is
  // rejected too, regardless of what follows.
  buf[9] = 0x81;
  buf[10] = 0x00;
  uint32_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint(buf, 11, &pos, &out));
  // The canonical 10-byte max still decodes.
  buf[9] = 0x01;
  pos = 0;
  ASSERT_TRUE(GetVarint(buf, 10, &pos, &out));
  EXPECT_EQ(out, uint64_t{1} << 63);
}

// ---- group codec -----------------------------------------------------

namespace {

DmNode GridNode(VertexId id, double x, double y, double z, double e_low,
                double e_high) {
  DmNode n;
  n.id = id;
  n.pos = Point3{x, y, z};
  n.e_low = e_low;
  n.e_high = e_high;
  n.parent = id + 3;
  n.child1 = id > 2 ? id - 2 : kInvalidVertex;
  n.wing2 = id + 1;
  n.connections = {id + 1, id + 4, id + 9};
  return n;
}

void ExpectNodesEqual(const DmNode& d, const DmNode& n, const char* what) {
  EXPECT_EQ(d.id, n.id) << what;
  EXPECT_EQ(d.pos, n.pos) << what;
  EXPECT_EQ(d.e_low, n.e_low) << what;
  EXPECT_EQ(d.e_high, n.e_high) << what;
  EXPECT_EQ(d.parent, n.parent) << what;
  EXPECT_EQ(d.child1, n.child1) << what;
  EXPECT_EQ(d.child2, n.child2) << what;
  EXPECT_EQ(d.wing1, n.wing1) << what;
  EXPECT_EQ(d.wing2, n.wing2) << what;
  EXPECT_EQ(d.connections, n.connections) << what;
}

}  // namespace

TEST(DmNodeGroupTest, RoundTripsIntegerGridCompactly) {
  // DEM-style nodes: integer grid positions, tiled LOD intervals
  // (child e_high == parent e_low), dense ids — the layout the group
  // codec is built for.
  std::vector<DmNode> nodes;
  uint32_t flat_bytes = 0;
  for (int i = 0; i < 40; ++i) {
    DmNode n = GridNode(1000 + i, 512.0 + i, 768.0 - i, 33.0 + (i % 7),
                        static_cast<double>(i % 4), double((i % 4) + 1));
    flat_bytes += n.EncodedSize();
    nodes.push_back(std::move(n));
  }
  DmNodeGroupEncoder enc(4096);
  for (const DmNode& n : nodes) ASSERT_TRUE(enc.Add(n));
  EXPECT_EQ(enc.count(), nodes.size());
  std::vector<uint8_t> blob;
  enc.Finish(&blob);
  // Shared bases + varint residuals: well under half the flat bytes.
  EXPECT_LT(blob.size() * 2, flat_bytes);

  const auto size = static_cast<uint32_t>(blob.size());
  auto count_or = DmNodeGroup::Count(blob.data(), size);
  ASSERT_TRUE(count_or.ok());
  ASSERT_EQ(count_or.value(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto d_or = DmNodeGroup::DecodeRecord(blob.data(), size,
                                          static_cast<uint32_t>(i));
    ASSERT_TRUE(d_or.ok()) << d_or.status().ToString();
    ExpectNodesEqual(d_or.value(), nodes[i], "grid record");
  }
}

TEST(DmNodeGroupTest, FractionalCoordinatesFallBackLosslessly) {
  // QEM-placed internal vertices are not on the grid; those axes must
  // fall back to raw doubles and round-trip bit for bit. Mix
  // per-axis: x integral, y fractional, z huge (outside the
  // double-exact integer window).
  std::vector<DmNode> nodes;
  nodes.push_back(GridNode(7, 100.0, 0.12345678901234567, 1.5e16, 0.25,
                           std::numeric_limits<double>::infinity()));
  nodes.push_back(GridNode(9, 103.0, -7.75, 1.5e16 + 1e3, 0.0, 0.25));
  nodes.push_back(GridNode(11, -44.0, 0.1 + 0.2, 9.007199254740993e15, 0.0,
                           0.25));
  DmNodeGroupEncoder enc(4096);
  for (const DmNode& n : nodes) ASSERT_TRUE(enc.Add(n));
  std::vector<uint8_t> blob;
  enc.Finish(&blob);
  const auto size = static_cast<uint32_t>(blob.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto d_or = DmNodeGroup::DecodeRecord(blob.data(), size,
                                          static_cast<uint32_t>(i));
    ASSERT_TRUE(d_or.ok()) << d_or.status().ToString();
    ExpectNodesEqual(d_or.value(), nodes[i], "fractional record");
  }
  // The root's +inf survived through the dictionary.
  auto root = DmNodeGroup::DecodeRecord(blob.data(), size, 0);
  EXPECT_TRUE(std::isinf(std::move(root).ValueOrDie().e_high));
}

TEST(DmNodeGroupTest, AddRejectsWithoutStateChange) {
  DmNodeGroupEncoder enc(160);  // room for ~2 small records
  const DmNode a = GridNode(1, 10.0, 20.0, 30.0, 0.0, 1.0);
  ASSERT_TRUE(enc.Add(a));
  const uint32_t size_after_one = enc.size_bytes();
  int added = 1;
  while (enc.Add(GridNode(1 + added, 10.0 + added, 20.0, 30.0,
                          added % 3, added % 3 + 1.0))) {
    ++added;
    ASSERT_LT(added, 100);
  }
  // The rejected Add left the encoder intact: the blob still holds
  // exactly `added` records and decodes cleanly.
  EXPECT_GE(enc.size_bytes(), size_after_one);
  EXPECT_EQ(enc.count(), static_cast<uint32_t>(added));
  std::vector<uint8_t> blob;
  enc.Finish(&blob);
  EXPECT_LE(blob.size(), 160u);
  auto count_or =
      DmNodeGroup::Count(blob.data(), static_cast<uint32_t>(blob.size()));
  ASSERT_TRUE(count_or.ok());
  EXPECT_EQ(count_or.value(), static_cast<uint32_t>(added));
  auto first = DmNodeGroup::DecodeRecord(blob.data(),
                                         static_cast<uint32_t>(blob.size()), 0);
  ASSERT_TRUE(first.ok());
  ExpectNodesEqual(first.value(), a, "first record after rejected Add");
}

TEST(DmNodeGroupTest, EncodeNodeGroupsSplitsAndPreservesOrder) {
  std::vector<DmNode> nodes;
  for (int i = 0; i < 64; ++i) {
    nodes.push_back(GridNode(i * 3, i * 2.0, 100.0 - i, 5.0, i % 5,
                             i % 5 + 1.0));
  }
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<uint32_t> counts;
  ASSERT_TRUE(EncodeNodeGroups(
                  [&](size_t i) -> const DmNode& { return nodes[i]; },
                  nodes.size(), 256, &blobs, &counts)
                  .ok());
  ASSERT_GT(blobs.size(), 1u);  // must have split under the tiny cap
  ASSERT_EQ(blobs.size(), counts.size());
  size_t at = 0;
  for (size_t g = 0; g < blobs.size(); ++g) {
    EXPECT_LE(blobs[g].size(), 256u);
    for (uint32_t s = 0; s < counts[g]; ++s, ++at) {
      auto d_or = DmNodeGroup::DecodeRecord(
          blobs[g].data(), static_cast<uint32_t>(blobs[g].size()), s);
      ASSERT_TRUE(d_or.ok()) << d_or.status().ToString();
      ExpectNodesEqual(d_or.value(), nodes[at], "split record");
    }
  }
  EXPECT_EQ(at, nodes.size());
}

TEST(DmNodeGroupTest, RandomizedGroupRoundTrip) {
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    const int count = 1 + static_cast<int>(rng.NextBelow(50));
    // A small LOD pool mimics the interval tiling the dictionary
    // exploits.
    double lods[5];
    for (double& e : lods) e = rng.Uniform(0, 1e4);
    std::vector<DmNode> nodes;
    for (int i = 0; i < count; ++i) {
      DmNode n;
      n.id = rng.UniformInt(0, 1 << 20);
      auto coord = [&]() {
        return rng.NextBelow(2) == 0
                   ? std::floor(rng.Uniform(-1e6, 1e6))  // on-grid
                   : rng.Uniform(-1e6, 1e6);             // fractional
      };
      n.pos = Point3{coord(), coord(), coord()};
      n.e_low = lods[rng.NextBelow(5)];
      n.e_high = rng.NextBelow(8) == 0
                     ? std::numeric_limits<double>::infinity()
                     : lods[rng.NextBelow(5)];
      auto maybe_link = [&]() {
        return rng.NextBelow(4) == 0 ? kInvalidVertex
                                     : rng.UniformInt(0, 1 << 21);
      };
      n.parent = maybe_link();
      n.child1 = maybe_link();
      n.child2 = maybe_link();
      n.wing1 = maybe_link();
      n.wing2 = maybe_link();
      const int k = static_cast<int>(rng.NextBelow(12));
      for (int c = 0; c < k; ++c) {
        n.connections.push_back(rng.UniformInt(0, 1 << 21));
      }
      std::sort(n.connections.begin(), n.connections.end());
      n.connections.erase(
          std::unique(n.connections.begin(), n.connections.end()),
          n.connections.end());
      nodes.push_back(std::move(n));
    }
    std::vector<std::vector<uint8_t>> blobs;
    std::vector<uint32_t> counts;
    ASSERT_TRUE(EncodeNodeGroups(
                    [&](size_t i) -> const DmNode& { return nodes[i]; },
                    nodes.size(), 4088, &blobs, &counts)
                    .ok())
        << "trial " << trial;
    size_t at = 0;
    for (size_t g = 0; g < blobs.size(); ++g) {
      for (uint32_t s = 0; s < counts[g]; ++s, ++at) {
        auto d_or = DmNodeGroup::DecodeRecord(
            blobs[g].data(), static_cast<uint32_t>(blobs[g].size()), s);
        ASSERT_TRUE(d_or.ok())
            << "trial " << trial << ": " << d_or.status().ToString();
        ExpectNodesEqual(d_or.value(), nodes[at], "random record");
      }
    }
    ASSERT_EQ(at, nodes.size()) << "trial " << trial;
  }
}

TEST(DmNodeGroupTest, TruncationAtEveryLengthReturnsCorruption) {
  std::vector<DmNode> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(GridNode(10 + i, i * 1.0, i * 2.0, 0.5, i % 3,
                             i % 3 + 1.0));
  }
  DmNodeGroupEncoder enc(4096);
  for (const DmNode& n : nodes) ASSERT_TRUE(enc.Add(n));
  std::vector<uint8_t> blob;
  enc.Finish(&blob);
  // Every truncated prefix must fail cleanly (section-offset check),
  // never read out of bounds — the asan/ubsan presets make this a
  // memory-safety proof, not just an API test.
  for (uint32_t cut = 0; cut < blob.size(); ++cut) {
    for (uint32_t idx : {0u, 3u, 7u}) {
      auto d_or = DmNodeGroup::DecodeRecord(blob.data(), cut, idx);
      EXPECT_FALSE(d_or.ok()) << "cut " << cut << " idx " << idx;
    }
  }
  // Single-byte corruption anywhere must decode or fail cleanly —
  // flipped varint boundaries, directory offsets, dictionary indexes
  // and flag bits all funnel into Corruption, never UB.
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    std::vector<uint8_t> bad = blob;
    bad[byte] ^= 0xFF;
    for (uint32_t idx = 0; idx < 8; ++idx) {
      auto d_or = DmNodeGroup::DecodeRecord(
          bad.data(), static_cast<uint32_t>(bad.size()), idx);
      (void)d_or.ok();  // either outcome is fine; crashing is not
    }
  }
  // Out-of-range record index.
  auto oob = DmNodeGroup::DecodeRecord(blob.data(),
                                       static_cast<uint32_t>(blob.size()), 8);
  EXPECT_FALSE(oob.ok());
}

}  // namespace
}  // namespace dm
