// Fixture: version-chain reads with no dominating pin or latch hold in
// the same function (unpinned-snapshot, positive). A concurrent fold or
// vacuum could reclaim the versions mid-read.
#include "storage/column_table.h"

namespace hattrick {

class Scanner {
 public:
  int ScanWithoutPin(ColumnTable* column) {
    // Protected read, nothing pinning the version chain first.
    auto snap = column->SnapshotVersions();
    return static_cast<int>(snap.size());
  }

 private:
  int scans_ = 0;
};

}  // namespace hattrick
