#include "data/io.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace dtrec {
namespace {

/// Parses all of `field` as a decimal count or id that fits the 32-bit
/// ids a RatingTriple stores: digits only (no sign, no blanks) and no
/// overflow. strtoull alone would take "-1" as 2^64 − 1 and "12x" as 12.
bool ParseUint32(const std::string& field, uint32_t* out) {
  if (field.empty() ||
      std::isdigit(static_cast<unsigned char>(field[0])) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
  if (*end != '\0' || errno != 0 ||
      value > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

Status ParseRow(const std::string& line, size_t line_number,
                RatingTriple* out) {
  const std::vector<std::string> fields = Split(line, ',');
  if (fields.size() != 3) {
    return Status::InvalidArgument(
        StrFormat("line %zu: expected 3 fields, got %zu", line_number,
                  fields.size()));
  }
  if (!ParseUint32(fields[0], &out->user)) {
    return Status::InvalidArgument(
        StrFormat("line %zu: bad user id '%s'", line_number,
                  fields[0].c_str()));
  }
  if (!ParseUint32(fields[1], &out->item)) {
    return Status::InvalidArgument(
        StrFormat("line %zu: bad item id '%s'", line_number,
                  fields[1].c_str()));
  }
  char* end = nullptr;
  const double rating = std::strtod(fields[2].c_str(), &end);
  if (end == fields[2].c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("line %zu: bad rating '%s'", line_number,
                  fields[2].c_str()));
  }
  out->rating = rating;
  return Status::OK();
}

}  // namespace

Status WriteRatingsCsv(const std::vector<RatingTriple>& triples,
                       const std::string& path) {
  std::ostringstream out;
  out << "user,item,rating\n";
  for (const auto& t : triples) {
    out << t.user << ',' << t.item << ',' << StrFormat("%.17g", t.rating)
        << '\n';
  }
  return WriteFileAtomic(path, std::move(out).str());
}

Result<std::vector<RatingTriple>> ReadRatingsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string line;
  if (!std::getline(in, line) ||
      StripWhitespace(line) != "user,item,rating") {
    return Status::InvalidArgument(
        "missing 'user,item,rating' header in " + path);
  }
  std::vector<RatingTriple> triples;
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (StripWhitespace(line).empty()) continue;
    RatingTriple triple;
    DTREC_RETURN_IF_ERROR(ParseRow(line, line_number, &triple));
    triples.push_back(triple);
  }
  return triples;
}

Status SaveDataset(const RatingDataset& dataset, const std::string& prefix) {
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  {
    std::ostringstream meta;
    meta << dataset.num_users() << ',' << dataset.num_items() << '\n';
    DTREC_RETURN_IF_ERROR(
        WriteFileAtomic(prefix + ".meta", std::move(meta).str()));
  }
  DTREC_RETURN_IF_ERROR(
      WriteRatingsCsv(dataset.train(), prefix + ".train.csv"));
  return WriteRatingsCsv(dataset.test(), prefix + ".test.csv");
}

Result<RatingDataset> LoadDataset(const std::string& prefix) {
  std::ifstream meta(prefix + ".meta");
  if (!meta.is_open()) {
    return Status::NotFound("cannot open: " + prefix + ".meta");
  }
  std::string line;
  if (!std::getline(meta, line)) {
    return Status::InvalidArgument("empty meta file");
  }
  const std::vector<std::string> dims = Split(std::string(
      StripWhitespace(line)), ',');
  if (dims.size() != 2) {
    return Status::InvalidArgument("meta must be 'num_users,num_items'");
  }
  uint32_t counts[2];
  const char* const names[2] = {"num_users", "num_items"};
  for (size_t f = 0; f < 2; ++f) {
    if (!ParseUint32(dims[f], &counts[f])) {
      return Status::InvalidArgument(StrFormat(
          "meta %s '%s' is not a decimal count below 2^32", names[f],
          dims[f].c_str()));
    }
  }

  auto train = ReadRatingsCsv(prefix + ".train.csv");
  if (!train.ok()) return train.status();
  auto test = ReadRatingsCsv(prefix + ".test.csv");
  if (!test.ok()) return test.status();

  RatingDataset dataset(counts[0], counts[1]);
  *dataset.mutable_train() = std::move(train).value();
  *dataset.mutable_test() = std::move(test).value();
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace dtrec
