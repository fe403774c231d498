#ifndef HATTRICK_TOOLS_FLAGS_H_
#define HATTRICK_TOOLS_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace hattrick {
namespace tools {

/// Value kind of a declared flag; Flags::Validate checks each given value
/// against it.
enum class FlagKind { kString, kInt, kDouble, kBool };

/// One flag a tool accepts. An integer flag may declare the inclusive
/// range [lo, hi] its value must lie in; Validate rejects a value outside
/// it instead of clamping.
struct FlagSpec {
  const char* name;
  FlagKind kind;
  int lo = INT_MIN;
  int hi = INT_MAX;
};

/// True when `s` cannot start a number: empty, or leading whitespace
/// (which strtol/strtod would skip).
inline bool BadNumberStart(const std::string& s) {
  return s.empty() || std::isspace(static_cast<unsigned char>(s[0]));
}

/// Strict integer parse: the whole of `s` must be a base-10 int.
inline bool ParseIntFlag(const std::string& s, int* out) {
  if (BadNumberStart(s)) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Strict floating-point parse: the whole of `s` must be a finite number.
inline bool ParseDoubleFlag(const std::string& s, double* out) {
  if (BadNumberStart(s)) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Boolean spellings: true/1/yes and false/0/no.
inline bool ParseBoolFlag(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "yes") {
    *out = true;
  } else if (s == "false" || s == "0" || s == "no") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

/// Minimal --key=value / --key value / --flag command-line parser for the
/// CLI tools (no external dependencies).
///
/// Tools declare the flags they accept and call Validate before reading
/// any: an unknown flag, a value that does not parse as its declared
/// kind, or an integer outside its declared range is an error, never a
/// silent default or clamp. The typed getters parse strictly and return
/// `fallback` when the flag is absent (or, for a value Validate would
/// reject, when the caller skipped Validate).
class Flags {
 public:
  /// Parses argv; unknown positional arguments are collected in order.
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) !=
                                     0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  /// Checks every given flag against `known`. Returns an empty string
  /// when all are declared and parse as their kind, else a one-line
  /// message naming the first offending flag.
  std::string Validate(const std::vector<FlagSpec>& known) const {
    for (const auto& [key, value] : values_) {
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& s : known) {
        if (key == s.name) spec = &s;
      }
      if (spec == nullptr) return "unknown flag --" + key;
      int i;
      double d;
      bool b;
      switch (spec->kind) {
        case FlagKind::kString:
          break;
        case FlagKind::kInt:
          if (!ParseIntFlag(value, &i)) {
            return "--" + key + ": '" + value + "' is not an integer";
          }
          if (i < spec->lo || i > spec->hi) {
            return "--" + key + ": " + value + " is out of range [" +
                   std::to_string(spec->lo) + ", " +
                   std::to_string(spec->hi) + "]";
          }
          break;
        case FlagKind::kDouble:
          if (!ParseDoubleFlag(value, &d)) {
            return "--" + key + ": '" + value + "' is not a number";
          }
          break;
        case FlagKind::kBool:
          if (!ParseBoolFlag(value, &b)) {
            return "--" + key + ": '" + value + "' is not a boolean";
          }
          break;
      }
    }
    return std::string();
  }

  bool Has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int GetInt(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    int v;
    return it != values_.end() && ParseIntFlag(it->second, &v) ? v : fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    double v;
    return it != values_.end() && ParseDoubleFlag(it->second, &v) ? v
                                                                   : fallback;
  }

  bool GetBool(const std::string& key, bool fallback) const {
    const auto it = values_.find(key);
    bool v;
    return it != values_.end() && ParseBoolFlag(it->second, &v) ? v
                                                                 : fallback;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tools
}  // namespace hattrick

#endif  // HATTRICK_TOOLS_FLAGS_H_
