#ifndef HATTRICK_ENGINE_SHARED_ENGINE_H_
#define HATTRICK_ENGINE_SHARED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/engine_config.h"
#include "engine/htap_engine.h"
#include "exec/scan.h"
#include "txn/timestamp.h"

namespace hattrick {

/// Shared design (Section 2.2): one engine, one copy of the data, both
/// workloads share all resources. Interference between T and A comes from
/// sharing compute (modeled by the simulator's single core pool) and from
/// MVCC version-chain traffic plus index maintenance (real, metered).
/// Analytics always read the latest committed snapshot, so the freshness
/// score is identically zero — the PostgreSQL behavior in Section 6.2.
class SharedEngine final : public HtapEngine {
 public:
  explicit SharedEngine(SharedEngineConfig config = {});

  const std::string& name() const override { return config_.name; }
  Status Create(const DatabaseSpec& spec) override;
  Status BulkLoad(const std::string& table,
                  const std::vector<Row>& rows) override;
  Status FinishLoad() override;
  TxnOutcome ExecuteTransaction(const TxnBody& body, uint32_t client_id,
                                uint64_t txn_num, WorkMeter* meter) override;
  AnalyticsSession BeginAnalytics(WorkMeter* meter) override;
  size_t Vacuum() override;
  Status Reset() override;
  Catalog* primary_catalog() override { return &catalog_; }
  TxnManager* txn_manager() override { return txn_manager_.get(); }

  IsolationLevel isolation() const { return config_.isolation; }

 private:
  SharedEngineConfig config_;
  Catalog catalog_;
  TimestampOracle oracle_;
  std::unique_ptr<TxnManager> txn_manager_;
  bool created_ = false;
  bool loaded_ = false;
};

/// Shared helper for all engines: creates tables/indexes in a catalog.
void BuildCatalog(const DatabaseSpec& spec, bool with_indexes,
                  Catalog* catalog);

/// Shared helper: inserts `rows` into `table` at load timestamp 1 and
/// maintains the catalog's indexes.
Status BulkLoadInto(Catalog* catalog, const std::string& table,
                    const std::vector<Row>& rows);

}  // namespace hattrick

#endif  // HATTRICK_ENGINE_SHARED_ENGINE_H_
