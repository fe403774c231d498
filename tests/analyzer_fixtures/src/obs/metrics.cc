// Fixture: a locally declared unordered_map iterated in an export path
// must trip unordered-iteration at the range-for.
#include <string>
#include <unordered_map>

std::string ExportAll() {
  std::unordered_map<std::string, double> values;  // finding
  std::string out;
  for (const auto& [name, value] : values) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}
