#include "rcs/core/repository.hpp"

#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/ftm/app_spec.hpp"
#include "rcs/sim/simulation.hpp"

namespace rcs::core {

Value TransitionPackage::to_value() const {
  Value v = Value::map();
  v.set("name", name)
      .set("components", components.encode())
      .set("script", script);
  return v;
}

TransitionPackage TransitionPackage::from_value(const Value& value) {
  TransitionPackage package;
  package.name = value.at("name").as_string();
  package.components =
      comp::ComponentPackage::decode(value.at("components").as_bytes());
  package.script = value.at("script").as_string();
  return package;
}

Repository::Repository(sim::Host& host, const comp::ComponentRegistry* registry)
    : host_(host), registry_(registry) {
  host_.register_handler("repo.fetch", [this](const sim::Message& message) {
    handle_fetch(message.payload, message.from);
  });
}

const comp::ComponentRegistry& Repository::registry() const {
  return registry_ ? *registry_ : comp::ComponentRegistry::instance();
}

const Value& Repository::cache(const TransitionPackage& package) {
  log().debug("repo", "built ", package.name, " (",
              package.components.total_code_size(), " bytes of artifacts)");
  return cache_.emplace(package.name, package.to_value()).first->second;
}

const Value& Repository::full_package(const ftm::FtmConfig& config,
                                      const ftm::AppSpec& app) {
  const std::string key = strf("full:", config.name, ":", app.type_name);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  TransitionPackage package;
  package.name = key;
  comp::ComponentPackage components(key);
  components.add_type(registry(), ftm::kernel::kProtocol);
  components.add_type(registry(), ftm::kernel::kReplyLog);
  components.add_type(registry(), ftm::kernel::kFailureDetector);
  components.add_type(registry(), app.type_name);
  for (const auto& brick : config.brick_types()) {
    components.add_type(registry(), brick);
  }
  package.components = std::move(components);
  package.script = ftm::ScriptBuilder(registry()).deployment_script(config, app);
  return cache(package);
}

const Value& Repository::transition_package(
    const ftm::FtmConfig& from, const ftm::FtmConfig& to,
    const ftm::AppSpec& app) {
  const std::string key =
      strf("transition:", from.name, "->", to.name, ":", app.type_name);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  TransitionPackage package;
  package.name = key;
  comp::ComponentPackage components(key);
  for (const auto& brick : ftm::ScriptBuilder::transition_new_types(from, to)) {
    components.add_type(registry(), brick);
  }
  package.components = std::move(components);
  package.script = ftm::ScriptBuilder(registry()).transition_script(from, to, app);
  return cache(package);
}

TransitionPackage Repository::refresh_package(const ftm::FtmConfig& config,
                                              const std::string& slot,
                                              const ftm::AppSpec& app) {
  TransitionPackage package;
  package.name = strf("refresh:", config.name, ":", slot);
  comp::ComponentPackage components(package.name);
  const auto slots = ftm::FtmConfig::slot_names();
  const auto types = config.brick_types();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == slot) components.add_type(registry(), types[i]);
  }
  if (components.entries().empty()) {
    throw FtmError(strf("refresh_package: unknown slot '", slot, "'"));
  }
  package.components = std::move(components);
  package.script = ftm::ScriptBuilder(registry()).refresh_script(config, slot, app);
  return package;
}

void Repository::handle_fetch(const Value& request, HostId requester) {
  const auto& kind = request.at("kind").as_string();
  Value response = Value::map();
  response.set("txn", request.at("txn"));
  if (host_.sim().fsim().enabled()) {
    // fsim "repo.fetch": the repository fails to serve this package (corrupt
    // artifact, transient store error). The engine's bounded fetch-retry
    // loop re-requests, so a transient fault here is masked.
    const fsim::Site site{kind, request.encoded_size(),
                          static_cast<std::int64_t>(host_.sim().now())};
    if (host_.sim().fsim().should_fail(fsim::Point::kRepoFetch, site)) {
      response.set("ok", false).set("error", "fsim: injected repository fault");
      host_.send(requester, "repo.package", std::move(response));
      return;
    }
  }
  try {
    const ftm::AppSpec app = ftm::AppSpec::from_value(request.at("app"));
    // Configurations travel by value, not by name: the repository can serve
    // FTMs that did not exist when it was written (agile adaptation, §2).
    const ftm::FtmConfig to = ftm::FtmConfig::from_value(request.at("to"));
    const Value* package = nullptr;
    if (kind == "full") {
      package = &full_package(to, app);
    } else if (kind == "transition") {
      const ftm::FtmConfig from = ftm::FtmConfig::from_value(request.at("from"));
      package = &transition_package(from, to, app);
    } else if (kind == "refresh") {
      const TransitionPackage refreshed =
          refresh_package(to, request.at("slot").as_string(), app);
      response.set("ok", true).set("package", refreshed.to_value());
      host_.send(requester, "repo.package", std::move(response));
      return;
    } else {
      throw FtmError(strf("repository: unknown fetch kind '", kind, "'"));
    }
    response.set("ok", true).set("package", *package);
  } catch (const Error& e) {
    response.set("ok", false).set("error", std::string(e.what()));
  }
  host_.send(requester, "repo.package", std::move(response));
}

}  // namespace rcs::core
