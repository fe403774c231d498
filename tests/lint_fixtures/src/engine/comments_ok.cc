// Fixture: mentions of banned tokens in comments and string literals must
// NOT fire. std::mutex, std::rand(), time(nullptr), std::random_device,
// std::getenv("HOME") — all prose.

/* Block comment mentioning std::shared_mutex and .lock() too. */

#include <string>

std::string Describe() {
  // The returned text talks about std::mutex but never uses it.
  std::string s = "uses std::rand() and std::chrono::system_clock";
  s += R"(raw string with std::mutex and time(nullptr) inside)";
  s += "reads nothing: std::getenv(\"HATTRICK_MERGE_MODE\")";
  return s;
}
