// Both hybrid merge protocols, for the suites that build a hybrid engine
// (directly, through SystemXConfig()/TidbConfig(), or as a sharded node):
// each such case runs under eager and bitmap merge, so one default ctest
// run covers both.

#ifndef HATTRICK_TESTS_MERGE_MODES_H_
#define HATTRICK_TESTS_MERGE_MODES_H_

#include <cstdint>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/engine_config.h"

namespace hattrick {

inline constexpr MergeMode kMergeModes[] = {MergeMode::kEager,
                                            MergeMode::kBitmap};

inline std::string MergeModeName(MergeMode mode) {
  return mode == MergeMode::kBitmap ? "bitmap" : "eager";
}

/// `config` with its merge mode set to `mode`.
inline HybridEngineConfig WithMergeMode(HybridEngineConfig config,
                                        MergeMode mode) {
  config.merge_mode = mode;
  return config;
}

/// Test-name suffix for a suite parameterized by MergeMode alone.
inline std::string MergeModeParamName(
    const ::testing::TestParamInfo<MergeMode>& info) {
  return MergeModeName(info.param);
}

/// Parameter of a suite that runs each of its seeds in both modes.
using SeedAndMergeMode = std::tuple<uint64_t, MergeMode>;

/// Test-name suffix "<seed>_<mode>" for a SeedAndMergeMode suite.
inline std::string SeedAndMergeModeName(
    const ::testing::TestParamInfo<SeedAndMergeMode>& info) {
  return std::to_string(std::get<0>(info.param)) + "_" +
         MergeModeName(std::get<1>(info.param));
}

}  // namespace hattrick

#endif  // HATTRICK_TESTS_MERGE_MODES_H_
