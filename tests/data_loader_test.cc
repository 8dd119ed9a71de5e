// Tests of dataset I/O (CSV observation + truth files).
#include "data/loader.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/example_data.h"
#include "data/synthetic.h"
#include "test_dir.h"

namespace veritas {
namespace {

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs_path_ = TestPath("veritas_obs.csv");
    truth_path_ = TestPath("veritas_truth.csv");
  }
  void TearDown() override {
    std::remove(obs_path_.c_str());
    std::remove(truth_path_.c_str());
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }

  std::string obs_path_;
  std::string truth_path_;
};

TEST_F(LoaderTest, LoadsTriples) {
  WriteFile(obs_path_,
            "source,item,value\n"
            "s1,movie,alpha\n"
            "s2,movie,beta\n"
            "s1,book,gamma\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_items(), 2u);
  EXPECT_EQ(db->num_sources(), 2u);
  EXPECT_EQ(db->num_observations(), 3u);
  EXPECT_TRUE(db->FindItem("movie").ok());
  EXPECT_TRUE(db->FindClaim(*db->FindItem("movie"), "beta").ok());
}

TEST_F(LoaderTest, HeaderIsOptional) {
  WriteFile(obs_path_, "s1,movie,alpha\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_observations(), 1u);
}

TEST_F(LoaderTest, CommentsAndBlanksIgnored) {
  WriteFile(obs_path_, "# data\n\ns1,movie,alpha\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_observations(), 1u);
}

TEST_F(LoaderTest, QuotedValuesWithCommas) {
  WriteFile(obs_path_, "s1,book,\"Knuth, Donald\"\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->FindClaim(*db->FindItem("book"), "Knuth, Donald").ok());
}

TEST_F(LoaderTest, WrongArityIsError) {
  WriteFile(obs_path_, "s1,movie\n");
  const auto db = LoadObservations(obs_path_);
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LoaderTest, DoubleVoteIsLastWriteWins) {
  WriteFile(obs_path_, "s1,movie,a\ns1,movie,b\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  // The second row revises the first: s1's vote moves from "a" to "b".
  EXPECT_EQ(db->num_observations(), 1u);
  const ItemId movie = *db->FindItem("movie");
  const auto a = db->FindClaim(movie, "a");
  const auto b = db->FindClaim(movie, "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(db->item(movie).claims[*a].sources.empty());
  EXPECT_EQ(db->item(movie).claims[*b].sources.size(), 1u);
}

TEST_F(LoaderTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadObservations("/no/such/file.csv").status().code(),
            StatusCode::kIoError);
}

TEST_F(LoaderTest, GroundTruthLoads) {
  WriteFile(obs_path_, "s1,movie,a\ns2,movie,b\n");
  WriteFile(truth_path_, "item,value\nmovie,b\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  const auto report = LoadGroundTruth(truth_path_, *db);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied, 1u);
  EXPECT_EQ(report->unknown_item, 0u);
  EXPECT_EQ(report->unknown_claim, 0u);
  const ItemId movie = *db->FindItem("movie");
  EXPECT_TRUE(report->truth.IsTrue(movie, *db->FindClaim(movie, "b")));
}

TEST_F(LoaderTest, GroundTruthCountsMismatches) {
  WriteFile(obs_path_, "s1,movie,a\n");
  WriteFile(truth_path_,
            "movie,zzz\n"        // Unknown claim.
            "nonexistent,a\n"    // Unknown item.
            "movie,a\n");        // Applies.
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  const auto report = LoadGroundTruth(truth_path_, *db);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied, 1u);
  EXPECT_EQ(report->unknown_item, 1u);
  EXPECT_EQ(report->unknown_claim, 1u);
}

TEST_F(LoaderTest, TruthWrongArityIsError) {
  WriteFile(obs_path_, "s1,movie,a\n");
  WriteFile(truth_path_, "movie\n");
  const auto db = LoadObservations(obs_path_);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(LoadGroundTruth(truth_path_, *db).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LoaderTest, RoundTripMovieDatabase) {
  const Database original = MakeMovieDatabase();
  const GroundTruth truth = MakeMovieGroundTruth(original);
  ASSERT_TRUE(SaveObservations(original, obs_path_).ok());
  ASSERT_TRUE(SaveGroundTruth(original, truth, truth_path_).ok());

  const auto loaded = LoadObservations(obs_path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_items(), original.num_items());
  EXPECT_EQ(loaded->num_sources(), original.num_sources());
  EXPECT_EQ(loaded->num_claims(), original.num_claims());
  EXPECT_EQ(loaded->num_observations(), original.num_observations());

  const auto report = LoadGroundTruth(truth_path_, *loaded);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied, 6u);
  for (ItemId i = 0; i < original.num_items(); ++i) {
    const ItemId li = *loaded->FindItem(original.item(i).name);
    const ClaimIndex orig_truth = truth.TrueClaim(i);
    const std::string& value = original.item(i).claims[orig_truth].value;
    EXPECT_TRUE(report->truth.IsTrue(li, *loaded->FindClaim(li, value)));
  }
}

TEST_F(LoaderTest, RoundTripSyntheticDataset) {
  DenseConfig config;
  config.num_items = 60;
  config.num_sources = 8;
  config.seed = 44;
  const SyntheticDataset data = GenerateDense(config);
  ASSERT_TRUE(SaveObservations(data.db, obs_path_).ok());
  ASSERT_TRUE(SaveGroundTruth(data.db, data.truth, truth_path_).ok());
  const auto loaded = LoadObservations(obs_path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_observations(), data.db.num_observations());
  const auto report = LoadGroundTruth(truth_path_, *loaded);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->applied, data.truth.num_known());
}

}  // namespace
}  // namespace veritas
