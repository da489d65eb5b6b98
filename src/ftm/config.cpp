#include "rcs/ftm/config.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::ftm {

int FtmConfig::diff_size(const FtmConfig& other) const {
  int diff = 0;
  if (sync_before != other.sync_before) ++diff;
  if (proceed != other.proceed) ++diff;
  if (sync_after != other.sync_after) ++diff;
  return diff;
}

Value FtmConfig::to_value() const {
  Value v = Value::map();
  v.set("name", name)
      .set("sync_before", sync_before)
      .set("proceed", proceed)
      .set("sync_after", sync_after)
      .set("duplex", duplex)
      .set("delta_checkpoint", delta_checkpoint);
  return v;
}

FtmConfig FtmConfig::from_value(const Value& value) {
  FtmConfig config;
  config.name = value.at("name").as_string();
  config.sync_before = value.at("sync_before").as_string();
  config.proceed = value.at("proceed").as_string();
  config.sync_after = value.at("sync_after").as_string();
  config.duplex = value.at("duplex").as_bool();
  // Absent in configurations persisted before the knob existed: delta is the
  // default.
  config.delta_checkpoint =
      value.get_or("delta_checkpoint", Value(true)).as_bool();
  return config;
}

const FtmConfig& FtmConfig::pbr() {
  static const FtmConfig config{"PBR", brick::kSyncBeforeNoop,
                                brick::kProceedCompute, brick::kSyncAfterPbr,
                                true};
  return config;
}

const FtmConfig& FtmConfig::lfr() {
  static const FtmConfig config{"LFR", brick::kSyncBeforeLfr,
                                brick::kProceedCompute, brick::kSyncAfterLfr,
                                true};
  return config;
}

const FtmConfig& FtmConfig::pbr_tr() {
  static const FtmConfig config{"PBR_TR", brick::kSyncBeforeNoop,
                                brick::kProceedTr, brick::kSyncAfterPbr, true};
  return config;
}

const FtmConfig& FtmConfig::lfr_tr() {
  static const FtmConfig config{"LFR_TR", brick::kSyncBeforeLfr,
                                brick::kProceedTr, brick::kSyncAfterLfr, true};
  return config;
}

const FtmConfig& FtmConfig::a_pbr() {
  static const FtmConfig config{"A_PBR", brick::kSyncBeforeNoop,
                                brick::kProceedCompute,
                                brick::kSyncAfterPbrAssert, true};
  return config;
}

const FtmConfig& FtmConfig::a_lfr() {
  static const FtmConfig config{"A_LFR", brick::kSyncBeforeLfr,
                                brick::kProceedCompute,
                                brick::kSyncAfterLfrAssert, true};
  return config;
}

const FtmConfig& FtmConfig::tr() {
  static const FtmConfig config{"TR", brick::kSyncBeforeNoop, brick::kProceedTr,
                                brick::kSyncAfterNoop, false};
  return config;
}

const FtmConfig& FtmConfig::rb() {
  static const FtmConfig config{"RB", brick::kSyncBeforeNoop, brick::kProceedRb,
                                brick::kSyncAfterNoop, false};
  return config;
}

const FtmConfig& FtmConfig::pbr_rb() {
  static const FtmConfig config{"PBR_RB", brick::kSyncBeforeNoop,
                                brick::kProceedRb, brick::kSyncAfterPbr, true};
  return config;
}

const std::vector<FtmConfig>& FtmConfig::table3_set() {
  static const std::vector<FtmConfig> set{pbr(),    lfr(),   pbr_tr(),
                                          lfr_tr(), a_pbr(), a_lfr()};
  return set;
}

const std::vector<FtmConfig>& FtmConfig::standard_set() {
  static const std::vector<FtmConfig> set{pbr(),   lfr(),    pbr_tr(),
                                          lfr_tr(), a_pbr(), a_lfr(),
                                          tr(),    rb(),     pbr_rb()};
  return set;
}

const FtmConfig& FtmConfig::by_name(const std::string& name) {
  for (const auto& config : standard_set()) {
    if (config.name == name) return config;
  }
  throw FtmError(strf("unknown FTM '", name, "'"));
}

}  // namespace rcs::ftm
