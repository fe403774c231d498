// Fixture: environment reads must fire env-read; mentions must not.
#include <cstdlib>

const char* Mode() { return std::getenv("MODE"); }
const char* Shards() { return getenv("SHARDS"); }
const char* Rows() { return secure_getenv("ROWS"); }
auto* const kReader = &::getenv;

// A comment naming getenv stays silent, and so does a string:
const char* kDoc = "set by getenv(\"MODE\") elsewhere";
int getenv_calls = 0;  // an identifier that only contains the word
