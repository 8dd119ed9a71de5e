#include "model/item_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "model/database_builder.h"

namespace veritas {
namespace {

std::vector<std::string> NeighborNames(const Database& db,
                                       const ItemGraph& graph,
                                       const std::string& item) {
  std::vector<ItemId> neighbors;
  graph.CollectNeighbors(*db.FindItem(item), &neighbors);
  std::vector<std::string> names;
  for (ItemId n : neighbors) names.push_back(db.item(n).name);
  std::sort(names.begin(), names.end());
  return names;
}

// Figure 2 of the paper: the item graph of Table 1.
class MovieGraphTest : public ::testing::Test {
 protected:
  Database db_ = MakeMovieDatabase();
  ItemGraph graph_{db_};
};

TEST_F(MovieGraphTest, ZootopiaNeighbors) {
  // O1 (Zootopia, voted by S2, S3, S4) touches every other item:
  // S2 -> O3, O5; S3 -> O2, O3, O6; S4 -> O4.
  const auto names = NeighborNames(db_, graph_, "Zootopia");
  EXPECT_EQ(names, (std::vector<std::string>{"Finding Dory", "Inside Out",
                                             "Kung Fu Panda", "Minions",
                                             "Rio"}));
}

TEST_F(MovieGraphTest, FindingDoryNeighbors) {
  // O4 is voted only by S4, which also votes on O1 — a single neighbour
  // (the §1.1 motivation for why validating Finding Dory is low-impact).
  const auto names = NeighborNames(db_, graph_, "Finding Dory");
  EXPECT_EQ(names, (std::vector<std::string>{"Zootopia"}));
}

TEST_F(MovieGraphTest, KungFuPandaNeighbors) {
  // O2 via S1 -> O5, O6 and via S3 -> O1, O3, O6.
  const auto names = NeighborNames(db_, graph_, "Kung Fu Panda");
  EXPECT_EQ(names, (std::vector<std::string>{"Inside Out", "Minions", "Rio",
                                             "Zootopia"}));
}

TEST_F(MovieGraphTest, NeighborsExcludeSelf) {
  std::vector<ItemId> neighbors;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    graph_.CollectNeighbors(i, &neighbors);
    EXPECT_EQ(std::count(neighbors.begin(), neighbors.end(), i), 0) << i;
  }
}

TEST_F(MovieGraphTest, NeighborsAreDistinct) {
  std::vector<ItemId> neighbors;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    graph_.CollectNeighbors(i, &neighbors);
    std::vector<ItemId> sorted = neighbors;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST_F(MovieGraphTest, AdjacencyIsSymmetric) {
  std::vector<ItemId> neighbors;
  std::vector<ItemId> reverse;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    graph_.CollectNeighbors(i, &neighbors);
    for (ItemId j : neighbors) {
      graph_.CollectNeighbors(j, &reverse);
      EXPECT_NE(std::find(reverse.begin(), reverse.end(), i), reverse.end())
          << i << " -> " << j;
    }
  }
}

TEST_F(MovieGraphTest, Degree) {
  // One-hop degrees of Figure 2: O1=5, O2=4, O3=4 (S2:O1,O5 + S3:O1,O2,O6),
  // O4=1, O5=4 (S1:O2,O6 + S2:O1,O3), O6=4.
  const std::size_t expected[] = {5, 4, 4, 1, 4, 4};
  std::vector<ItemId> neighbors;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    graph_.CollectNeighbors(i, &neighbors);
    EXPECT_EQ(neighbors.size(), expected[i]) << db_.item(i).name;
  }
}

TEST_F(MovieGraphTest, AverageDegree) {
  // The mean one-hop degree of Figure 2, summed from the neighbour lists.
  std::vector<ItemId> neighbors;
  std::size_t total = 0;
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    graph_.CollectNeighbors(i, &neighbors);
    total += neighbors.size();
  }
  EXPECT_NEAR(static_cast<double>(total) / db_.num_items(),
              (5 + 4 + 4 + 1 + 4 + 4) / 6.0, 1e-12);
}

TEST_F(MovieGraphTest, ConnectedViaMultiHopPath) {
  // O2 and O4 are connected via <O2, S3, O1, S4, O4> (§4.2.3): two hops,
  // not one.
  const auto has = [](const std::vector<std::string>& names, const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  const auto from_o2 = NeighborNames(db_, graph_, "Kung Fu Panda");
  EXPECT_TRUE(has(from_o2, "Zootopia"));
  EXPECT_FALSE(has(from_o2, "Finding Dory"));
  EXPECT_TRUE(has(NeighborNames(db_, graph_, "Zootopia"), "Finding Dory"));
}

TEST(ItemGraphTest, DisconnectedComponents) {
  DatabaseBuilder builder;
  // Two islands: {a1, a2} via sA, {b1} via sB.
  ASSERT_TRUE(builder.AddObservation("sA", "a1", "x").ok());
  ASSERT_TRUE(builder.AddObservation("sA", "a2", "y").ok());
  ASSERT_TRUE(builder.AddObservation("sB", "b1", "z").ok());
  const Database db = builder.Build();
  const ItemGraph graph(db);
  EXPECT_EQ(NeighborNames(db, graph, "a1"), std::vector<std::string>{"a2"});
  EXPECT_EQ(NeighborNames(db, graph, "a2"), std::vector<std::string>{"a1"});
  EXPECT_TRUE(NeighborNames(db, graph, "b1").empty());
}

TEST(ItemGraphTest, RepeatedQueriesAreConsistent) {
  const Database db = MakeMovieDatabase();
  const ItemGraph graph(db);
  std::vector<ItemId> first, second;
  graph.CollectNeighbors(0, &first);
  for (int i = 0; i < 100; ++i) {
    graph.CollectNeighbors(0, &second);
    EXPECT_EQ(first, second);
  }
}

}  // namespace
}  // namespace veritas
