// Deployable component packages and per-host type libraries.
//
// The paper's transition packages carry "the new bricks that must be
// integrated into the existing software architecture" plus a script (§5.1).
// A ComponentPackage is the brick half: serialized code artifacts (generated
// from registry metadata, sized by code_size so the simulated network charges
// realistic transfer times) with XXH64 checksums verified on installation.
//
// An artifact depends only on its type's (name, version, code_size), so each
// one is synthesized once per process, on first request, and shared from then
// on: entries hold their code by SharedBytes handle, and copying an entry or
// a package copies no code. What is shared is never trusted: every
// HostLibrary::install hashes every byte it is handed, on every host, every
// time, and the encoded package — whose size prices the simulated transfer —
// is byte-for-byte what it would be without the sharing. The checksum is
// XXH64, chosen because every install pays for it over every byte.
//
// A HostLibrary is the set of types installed on one host; Composite::add
// refuses types the library does not have — this is what forces missing
// bricks to be uploaded before a transition can run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rcs/common/bytes.hpp"
#include "rcs/common/error.hpp"
#include "rcs/component/registry.hpp"

namespace rcs::comp {

struct PackageEntry {
  std::string type_name;
  std::uint32_t version{1};
  SharedBytes code;           // immutable; copies of the entry share it
  std::uint64_t checksum{0};  // xxh64(code), checked by every install

  /// The artifact of a type: built the first time this process asks for its
  /// (type_name, version, code_size), shared by every later caller. Safe to
  /// call from concurrent simulations.
  [[nodiscard]] static PackageEntry for_type(const ComponentTypeInfo& info);
};

class ComponentPackage {
 public:
  ComponentPackage() = default;
  explicit ComponentPackage(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<PackageEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t total_code_size() const;

  void add(PackageEntry entry) { entries_.push_back(std::move(entry)); }
  /// Add the artifact for a registered type.
  void add_type(const ComponentRegistry& registry, const std::string& type_name);

  [[nodiscard]] Bytes encode() const;
  /// Fails closed: truncation, an entry count the input cannot hold, or
  /// bytes after the last entry throw ValueError. Checksums are not checked
  /// here; HostLibrary::install does that.
  [[nodiscard]] static ComponentPackage decode(const Bytes& data);
  /// Number of entries in an encoded package, read from its header without
  /// decoding the entries (same count check as decode).
  [[nodiscard]] static std::size_t count_entries(const Bytes& data);

 private:
  std::string name_;
  std::vector<PackageEntry> entries_;
};

class HostLibrary {
 public:
  /// Install one artifact; hashes all of its code and verifies the checksum
  /// (a corrupted upload is rejected with Status kFailedPrecondition), shared
  /// buffer or not. Reinstalling the same type upgrades the stored version.
  Status install(const PackageEntry& entry);
  /// Install everything in a package; stops at the first failure.
  Status install(const ComponentPackage& package);

  void install_type(const ComponentRegistry& registry, const std::string& type_name);
  /// Convenience for bootstrapping: install every registered type.
  void install_all(const ComponentRegistry& registry);

  [[nodiscard]] bool installed(const std::string& type_name) const;
  [[nodiscard]] std::uint32_t version(const std::string& type_name) const;
  [[nodiscard]] std::vector<std::string> installed_types() const;
  void remove(const std::string& type_name);

 private:
  std::map<std::string, std::uint32_t> versions_;
};

}  // namespace rcs::comp
