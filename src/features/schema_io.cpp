#include "features/schema_io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace wtp::features {

namespace {

constexpr const char* kMagic = "wtp_schema v1";

void write_vocabulary(std::ostream& out, const char* key,
                      const std::vector<std::string>& values) {
  out << key << ' ' << values.size() << '\n';
  for (const auto& value : values) out << value << '\n';
}

std::vector<std::string> read_vocabulary(std::istream& in, const std::string& key) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error{"load_schema: unexpected end before '" + key + "'"};
  }
  const std::size_t space = line.find(' ');
  if (space == std::string::npos || line.substr(0, space) != key) {
    throw std::runtime_error{"load_schema: expected '" + key + " <n>', got '" +
                             line + "'"};
  }
  const std::size_t count = std::stoul(line.substr(space + 1));
  std::vector<std::string> values;  // no reserve: `count` is untrusted
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"load_schema: truncated '" + key + "' section"};
    }
    values.push_back(line);
  }
  return values;
}

}  // namespace

void save_schema(std::ostream& out, const FeatureSchema& schema) {
  out << kMagic << '\n';
  write_vocabulary(out, "categories", schema.categories());
  write_vocabulary(out, "super_types", schema.super_types());
  write_vocabulary(out, "sub_types", schema.sub_types());
  write_vocabulary(out, "application_types", schema.application_types());
}

void save_schema_file(const std::string& path, const FeatureSchema& schema) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_schema_file: cannot open '" + path + "'"};
  save_schema(out, schema);
}

FeatureSchema load_schema(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error{"load_schema: missing magic line"};
  }
  auto categories = read_vocabulary(in, "categories");
  auto super_types = read_vocabulary(in, "super_types");
  auto sub_types = read_vocabulary(in, "sub_types");
  auto application_types = read_vocabulary(in, "application_types");
  return FeatureSchema{std::move(categories), std::move(super_types),
                       std::move(sub_types), std::move(application_types)};
}

FeatureSchema load_schema_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_schema_file: cannot open '" + path + "'"};
  return load_schema(in);
}

}  // namespace wtp::features
