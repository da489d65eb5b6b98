// FTM & Adaptation Repository (paper Fig. 7, the "cold" side).
//
// Lives on its own host and serves, over the simulated network:
//   - full FTM packages: every component of one FTM + its deployment script;
//   - transition packages: only the new bricks of a differential transition
//     + the reconfiguration script that swaps them in (§5.1).
// Packages are generated from the component registry by the ScriptBuilder
// (the off-line "development of transition packages") and cached in wire
// form: a repeated fetch re-encodes nothing, and the encoded artifact blob is
// shared (SharedBytes), not copied, by every response and message that
// carries it. Transfer time is paid on the wire: package payloads carry the
// full artifact bytes.
//
// Message protocol:
//   in:  "repo.fetch"   {txn, kind: "full"|"transition", to, from?, app}
//   out: "repo.package" {txn, ok, name, components: bytes, script, error?}
#pragma once

#include <map>
#include <string>

#include "rcs/component/package.hpp"
#include "rcs/component/registry.hpp"
#include "rcs/ftm/app_spec.hpp"
#include "rcs/ftm/config.hpp"
#include "rcs/ftm/script_builder.hpp"
#include "rcs/sim/host.hpp"

namespace rcs::core {

/// What travels from the repository to the adaptation engine.
struct TransitionPackage {
  std::string name;
  comp::ComponentPackage components;
  std::string script;

  [[nodiscard]] Value to_value() const;
  [[nodiscard]] static TransitionPackage from_value(const Value& value);
};

class Repository {
 public:
  Repository(sim::Host& host,
             const comp::ComponentRegistry* registry = nullptr);

  [[nodiscard]] sim::Host& host() { return host_; }

  /// Build (or fetch from cache) the full package for deploying `config`,
  /// in the wire form TransitionPackage::to_value gives.
  [[nodiscard]] const Value& full_package(const ftm::FtmConfig& config,
                                          const ftm::AppSpec& app);

  /// Build (or fetch from cache) the differential transition package, in
  /// wire form.
  [[nodiscard]] const Value& transition_package(
      const ftm::FtmConfig& from, const ftm::FtmConfig& to,
      const ftm::AppSpec& app);

  /// Package refreshing one slot of `config` with a new build of the same
  /// brick (an FTM *update*, §3.2.1). Not cached: an update ships a new
  /// artifact every time.
  [[nodiscard]] TransitionPackage refresh_package(const ftm::FtmConfig& config,
                                                  const std::string& slot,
                                                  const ftm::AppSpec& app);

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

 private:
  void handle_fetch(const Value& request, HostId requester);
  [[nodiscard]] const comp::ComponentRegistry& registry() const;
  const Value& cache(const TransitionPackage& package);

  sim::Host& host_;
  const comp::ComponentRegistry* registry_;
  /// Wire form of each package built so far, by package name.
  std::map<std::string, Value> cache_;
};

}  // namespace rcs::core
