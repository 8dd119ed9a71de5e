#include "util/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "test_dir.h"

namespace veritas {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  const CsvRow row = ParseCsvLine("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(ParseCsvLineTest, EmptyFields) {
  const CsvRow row = ParseCsvLine(",,");
  ASSERT_EQ(row.size(), 3u);
  for (const auto& f : row) EXPECT_TRUE(f.empty());
}

TEST(ParseCsvLineTest, QuotedFieldWithDelimiter) {
  const CsvRow row = ParseCsvLine(R"(src,"Smith, John",value)");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "Smith, John");
}

TEST(ParseCsvLineTest, EscapedQuotes) {
  const CsvRow row = ParseCsvLine(R"("say ""hi""",x)");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "say \"hi\"");
}

TEST(ParseCsvLineTest, IgnoresCarriageReturn) {
  const CsvRow row = ParseCsvLine("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(ParseCsvLineTest, CustomDelimiter) {
  const CsvRow row = ParseCsvLine("a|b|c", '|');
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[1], "b");
}

TEST(EscapeCsvFieldTest, PlainUnchanged) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
}

TEST(EscapeCsvFieldTest, QuotesWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("a\"b"), "\"a\"\"b\"");
}

TEST(FormatCsvRowTest, RoundTripsThroughParse) {
  const CsvRow original = {"plain", "with,comma", "with\"quote", ""};
  const CsvRow parsed = ParseCsvLine(FormatCsvRow(original));
  EXPECT_EQ(parsed, original);
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("veritas_csv_test.csv");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvFileTest, WriteThenRead) {
  const std::vector<CsvRow> rows = {{"s1", "i1", "v1"}, {"s2", "i2", "v,2"}};
  ASSERT_TRUE(WriteCsvFile(path_, rows).ok());
  const auto read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
}

TEST_F(CsvFileTest, SkipsCommentsAndBlankLines) {
  std::ofstream out(path_);
  out << "# comment\n\na,b\n   \nc,d\n";
  out.close();
  const auto read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0][0], "a");
  EXPECT_EQ((*read)[1][1], "d");
}

TEST_F(CsvFileTest, MultiLineQuotedFieldRoundTrips) {
  const std::vector<CsvRow> rows = {
      {"s1", "line one\nline two", "v1"},
      {"s2", "a,b\n\"quoted\"\nend", "v2"},
  };
  ASSERT_TRUE(WriteCsvFile(path_, rows).ok());
  const auto read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
}

TEST_F(CsvFileTest, CommentInsideOpenQuoteIsContent) {
  std::ofstream out(path_);
  out << "a,\"x\n# not a comment\ny\",b\n# real comment\nc,d,e\n";
  out.close();
  const auto read = ReadCsvFile(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 2u);
  EXPECT_EQ((*read)[0][1], "x\n# not a comment\ny");
  EXPECT_EQ((*read)[1][0], "c");
}

TEST_F(CsvFileTest, RandomRowsRoundTrip) {
  // Property check: any table WriteCsvFile emits, ReadCsvFile must parse
  // back verbatim — including fields with delimiters, quotes and embedded
  // newlines. First fields are kept non-empty and non-'#' so no formatted
  // line is mistakable for a blank/comment line between rows.
  const std::string charset = "ab,\"\n |;#x ";
  Rng rng(20260806);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<CsvRow> rows(1 + rng.UniformIndex(6));
    for (CsvRow& row : rows) {
      row.resize(1 + rng.UniformIndex(4));
      for (std::size_t f = 0; f < row.size(); ++f) {
        std::string field;
        const std::size_t len = rng.UniformIndex(8);
        for (std::size_t i = 0; i < len; ++i) {
          field.push_back(charset[rng.UniformIndex(charset.size())]);
        }
        row[f] = std::move(field);
      }
      row[0] = "r" + row[0];
    }
    ASSERT_TRUE(WriteCsvFile(path_, rows).ok());
    const auto read = ReadCsvFile(path_);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(*read, rows) << "trial " << trial;
  }
}

TEST_F(CsvFileTest, MissingFileIsIoError) {
  const auto read = ReadCsvFile("/nonexistent/dir/file.csv");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(CsvFileTest, WriteToBadPathIsIoError) {
  const Status st = WriteCsvFile("/nonexistent/dir/file.csv", {{"a"}});
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace veritas
