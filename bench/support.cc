#include "bench/support.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "engine/engine_factory.h"
#include "shard/shard_router.h"
#include "shard/sharded_engine.h"

namespace hattrick {
namespace bench {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPostgres:
      return "PostgreSQL";
    case EngineKind::kPostgresRC:
      return "PostgreSQL-RC";
    case EngineKind::kPostgresSR:
      return "PostgreSQL-SR";
    case EngineKind::kPostgresSRRA:
      return "PostgreSQL-SR-RA";
    case EngineKind::kSystemX:
      return "System-X";
    case EngineKind::kTidb:
      return "TiDB";
    case EngineKind::kTidbDist:
      return "TiDB-Dist";
  }
  return "?";
}

bool ParseEngineKind(const std::string& name, EngineKind* kind) {
  if (name == "postgres" || name == "shared") {
    *kind = EngineKind::kPostgres;
  } else if (name == "postgres-rc") {
    *kind = EngineKind::kPostgresRC;
  } else if (name == "postgres-sr" || name == "isolated") {
    *kind = EngineKind::kPostgresSR;
  } else if (name == "postgres-sr-ra") {
    *kind = EngineKind::kPostgresSRRA;
  } else if (name == "system-x" || name == "hybrid") {
    *kind = EngineKind::kSystemX;
  } else if (name == "tidb") {
    *kind = EngineKind::kTidb;
  } else if (name == "tidb-dist") {
    *kind = EngineKind::kTidbDist;
  } else {
    return false;
  }
  return true;
}

EngineKind EngineKindFromNameOrDie(const std::string& name) {
  EngineKind kind;
  if (!ParseEngineKind(name, &kind)) {
    std::fprintf(stderr,
                 "unknown setup name '%s' (expected postgres, postgres-rc, "
                 "postgres-sr, postgres-sr-ra, system-x, tidb, or "
                 "tidb-dist)\n",
                 name.c_str());
    std::abort();
  }
  return kind;
}

BenchEnv MakeEnv(EngineKind kind, double scale_factor,
                 PhysicalSchema physical, const FaultConfig& fault,
                 MergeMode merge_mode, uint32_t shards) {
  BenchEnv env;
  DatagenConfig datagen;
  datagen.scale_factor = scale_factor;
  datagen.lineorders_per_sf = kLineordersPerSf;
  datagen.seed = kDatagenSeed;
  datagen.num_freshness_tables = kFreshnessTables;
  env.dataset = GenerateDataset(datagen);

  SimSetup setup;
  switch (kind) {
    case EngineKind::kPostgres: {
      SharedEngineConfig config;
      config.name = "PostgreSQL";
      config.isolation = IsolationLevel::kSerializable;
      env.engine = MakeSharedEngine(config);
      setup = SharedSimSetup();
      break;
    }
    case EngineKind::kPostgresRC: {
      SharedEngineConfig config;
      config.name = "PostgreSQL-RC";
      config.isolation = IsolationLevel::kReadCommitted;
      env.engine = MakeSharedEngine(config);
      setup = SharedSimSetup();
      break;
    }
    case EngineKind::kPostgresSR: {
      IsolatedEngineConfig config;
      config.name = "PostgreSQL-SR";
      config.mode = ReplicationMode::kSyncShip;
      config.fault = fault;
      env.engine = MakeIsolatedEngine(config);
      setup = IsolatedSimSetup();
      break;
    }
    case EngineKind::kPostgresSRRA: {
      IsolatedEngineConfig config;
      config.name = "PostgreSQL-SR-RA";
      config.mode = ReplicationMode::kRemoteApply;
      config.fault = fault;
      env.engine = MakeIsolatedEngine(config);
      setup = IsolatedSimSetup();
      break;
    }
    case EngineKind::kSystemX: {
      HybridEngineConfig config = SystemXConfig();
      config.merge_mode = merge_mode;
      env.engine = MakeHybridEngine(config);
      setup = HybridSimSetup();
      break;
    }
    case EngineKind::kTidb: {
      HybridEngineConfig config = TidbConfig();
      config.merge_mode = merge_mode;
      env.engine = MakeHybridEngine(config);
      setup = HybridSimSetup();
      break;
    }
    case EngineKind::kTidbDist: {
      ShardedEngineConfig config;
      config.name = "TiDB-Dist";
      config.shards = shards;
      config.seed = kDatagenSeed;
      config.plan = MakeSsbShardPlan(kFreshnessTables);
      config.node = TidbConfig();
      config.node.merge_mode = merge_mode;
      config.fault = fault;
      env.engine = std::make_unique<ShardedEngine>(config);
      setup = ShardedSimSetup(shards);
      break;
    }
  }

  const Status status = LoadDataset(env.dataset, physical, env.engine.get());
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  env.context = std::make_unique<WorkloadContext>(env.dataset);
  env.driver = std::make_unique<SimDriver>(env.engine.get(),
                                           env.context.get(), setup);
  return env;
}

WorkloadConfig DefaultRunConfig() {
  WorkloadConfig config;
  config.warmup_seconds = 0.25;
  config.measure_seconds = 1.0;
  config.seed = 7;
  return config;
}

FrontierOptions DefaultFrontierOptions() {
  FrontierOptions options;
  options.lines = 5;
  options.points_per_line = 5;
  options.max_clients = 32;
  return options;
}

GridGraph RunGrid(BenchEnv* env, const std::string& label) {
  std::printf("# building grid graph for %s\n", label.c_str());
  std::fflush(stdout);
  const GridGraph grid = BuildGridGraph(
      MakeRunner(env->driver.get(), DefaultRunConfig()),
      DefaultFrontierOptions(), [](const std::string&) {
        std::fputc('.', stdout);
        std::fflush(stdout);
      });
  std::printf("\n");
  return grid;
}

void ReportSystem(BenchEnv* env, const std::string& label,
                  const GridGraph& grid) {
  PrintFrontierSummary(label, grid);
  PrintGridCsv(label, grid);
  const auto freshness = MeasureRatioFreshness(
      MakeRunner(env->driver.get(), DefaultRunConfig()), grid.tau_max,
      grid.alpha_max);
  PrintRatioFreshness(label, freshness);
}

}  // namespace bench
}  // namespace hattrick
