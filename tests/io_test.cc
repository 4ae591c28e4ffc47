#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>

#include "data/io.h"
#include "synth/coat_like.h"

namespace dtrec {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(RatingsCsvTest, RoundTrip) {
  const std::vector<RatingTriple> triples{
      {0, 5, 1.0}, {3, 2, 0.0}, {7, 7, 4.5}};
  const std::string path = TempPath("ratings_roundtrip.csv");
  ASSERT_TRUE(WriteRatingsCsv(triples, path).ok());
  auto loaded = ReadRatingsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value()[0].user, 0u);
  EXPECT_EQ(loaded.value()[0].item, 5u);
  EXPECT_DOUBLE_EQ(loaded.value()[2].rating, 4.5);
}

TEST(RatingsCsvTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadRatingsCsv("/nonexistent/file.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(RatingsCsvTest, RejectsBadHeader) {
  const std::string path = TempPath("bad_header.csv");
  std::ofstream(path) << "u,i,r\n1,2,3\n";
  EXPECT_EQ(ReadRatingsCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RatingsCsvTest, RejectsMalformedRows) {
  const std::string path = TempPath("bad_rows.csv");
  std::ofstream(path) << "user,item,rating\n1,2\n";
  const auto result = ReadRatingsCsv(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);

  std::ofstream(path) << "user,item,rating\nabc,2,3\n";
  EXPECT_FALSE(ReadRatingsCsv(path).ok());

  std::ofstream(path) << "user,item,rating\n1,2,xyz\n";
  EXPECT_FALSE(ReadRatingsCsv(path).ok());
}

TEST(RatingsCsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blank_lines.csv");
  std::ofstream(path) << "user,item,rating\n1,2,3\n\n4,5,0.5\n";
  auto loaded = ReadRatingsCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
}

TEST(DatasetIoTest, SaveLoadRoundTrip) {
  const RatingDataset original = MakeCoatLike(9).dataset;
  const std::string prefix = TempPath("coat_ds");
  ASSERT_TRUE(SaveDataset(original, prefix).ok());
  auto loaded = LoadDataset(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value().num_users(), original.num_users());
  EXPECT_EQ(loaded.value().num_items(), original.num_items());
  ASSERT_EQ(loaded.value().train().size(), original.train().size());
  ASSERT_EQ(loaded.value().test().size(), original.test().size());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded.value().train()[i].user, original.train()[i].user);
    EXPECT_EQ(loaded.value().train()[i].item, original.train()[i].item);
    EXPECT_DOUBLE_EQ(loaded.value().train()[i].rating,
                     original.train()[i].rating);
  }
}

TEST(DatasetIoTest, SaveRejectsInvalidDataset) {
  RatingDataset empty(3, 3);
  EXPECT_FALSE(SaveDataset(empty, TempPath("invalid_ds")).ok());
}

TEST(DatasetIoTest, LoadRejectsMissingMeta) {
  EXPECT_EQ(LoadDataset(TempPath("never_written")).status().code(),
            StatusCode::kNotFound);
}

TEST(DatasetIoTest, LoadRejectsBadMeta) {
  const std::string prefix = TempPath("bad_meta");
  std::ofstream(prefix + ".meta") << "justonefield\n";
  EXPECT_EQ(LoadDataset(prefix).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatasetIoTest, LoadRejectsMetaCountsThatAreNotWhole) {
  // Each count must parse whole, unsigned, within the 32-bit ids the
  // triples store; the error names the field. "-1" once loaded as 2^64 − 1
  // users and "12x" as 12.
  const std::string prefix = TempPath("bad_counts");
  std::ofstream(prefix + ".train.csv") << "user,item,rating\n0,0,1\n";
  std::ofstream(prefix + ".test.csv") << "user,item,rating\n0,1,0\n";
  const std::pair<const char*, const char*> cases[] = {
      {"-1,300", "num_users '-1'"},
      {"12x,300", "num_users '12x'"},
      {"abc,300", "num_users 'abc'"},
      {"300,", "num_items ''"},
      {"18446744073709551616,1", "num_users '18446744073709551616'"},
      {"4294967296,1", "num_users '4294967296'"},
      {"+5,5", "num_users '+5'"},
  };
  for (const auto& [meta, field] : cases) {
    SCOPED_TRACE(meta);
    std::ofstream(prefix + ".meta") << meta << "\n";
    const Status status = LoadDataset(prefix).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.message();
  }
  std::ofstream(prefix + ".meta") << "1,2\n";
  EXPECT_TRUE(LoadDataset(prefix).ok());
}

TEST(RatingsCsvTest, RejectsIdsOutsideUint32) {
  // A 33-bit id once wrapped to user 0 and a negative one to 2^32 − 1.
  const std::string path = TempPath("wide_ids.csv");
  for (const char* row : {"4294967296,2,3", "-1,2,3", "1,+2,3"}) {
    SCOPED_TRACE(row);
    std::ofstream(path) << "user,item,rating\n" << row << "\n";
    EXPECT_EQ(ReadRatingsCsv(path).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DatasetIoTest, LoadValidatesIds) {
  // Train references user 99 but meta says 5 users.
  const std::string prefix = TempPath("oob_ids");
  std::ofstream(prefix + ".meta") << "5,5\n";
  std::ofstream(prefix + ".train.csv") << "user,item,rating\n99,0,1\n";
  std::ofstream(prefix + ".test.csv") << "user,item,rating\n0,0,1\n";
  EXPECT_EQ(LoadDataset(prefix).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dtrec
