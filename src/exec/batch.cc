#include "exec/batch.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hattrick {

size_t BatchRowsFromEnv(const char* value) {
  if (value == nullptr || *value == '\0') return kDefaultBatchRows;
  char* end = nullptr;
  errno = 0;
  const long long rows = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || rows < 1) {
    // A typo must not silently run every query at another batch width.
    std::fprintf(stderr,
                 "invalid HATTRICK_BATCH_ROWS '%s' (expected a positive "
                 "integer)\n",
                 value);
    std::abort();
  }
  return static_cast<size_t>(rows);
}

size_t DefaultBatchRows() {
  static const size_t rows =
      BatchRowsFromEnv(std::getenv("HATTRICK_BATCH_ROWS"));
  return rows;
}

}  // namespace hattrick
