#include "rcs/component/package.hpp"

#include <mutex>
#include <tuple>

#include "rcs/common/strf.hpp"

namespace rcs::comp {

namespace {
/// Deterministic pseudo-artifact for a type: `code_size` bytes derived from
/// the type name. Stands in for the compiled brick the paper's repository
/// ships; the content only matters for sizing and checksum verification.
Bytes synthesize_code(const ComponentTypeInfo& info) {
  Bytes code;
  code.reserve(info.code_size);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : info.type_name) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  }
  h ^= info.version;
  std::uint64_t x = h;
  while (code.size() < info.code_size) {
    // SplitMix64 stream keyed by the type name.
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    for (int i = 0; i < 8 && code.size() < info.code_size; ++i) {
      code.push_back(static_cast<std::uint8_t>(z >> (8 * i)));
    }
  }
  return code;
}

/// Smallest encoded entry: a 1-byte name length, the u32 version, a 1-byte
/// code length and the u64 checksum.
constexpr std::uint64_t kMinEntryBytes = 1 + 4 + 1 + 8;

/// Reads the entry count after the package name, refusing a count the bytes
/// left cannot hold before anything is allocated for it.
std::uint64_t read_entry_count(ByteReader& r) {
  const auto n = r.read_varint();
  if (n > r.remaining() / kMinEntryBytes) {
    throw ValueError(strf("ComponentPackage::decode: ", n, " entries in ",
                          r.remaining(), " bytes"));
  }
  return n;
}
}  // namespace

PackageEntry PackageEntry::for_type(const ComponentTypeInfo& info) {
  // Keyed on everything synthesize_code reads, so two registries that give
  // one type name different sizes get different artifacts. A process
  // registers a few dozen types: nothing is ever evicted.
  using Key = std::tuple<std::string, std::uint32_t, std::size_t>;
  static std::mutex mutex;
  static std::map<Key, PackageEntry> artifacts;

  const std::lock_guard<std::mutex> lock(mutex);
  Key key{info.type_name, info.version, info.code_size};
  auto it = artifacts.find(key);
  if (it == artifacts.end()) {
    Bytes code = synthesize_code(info);
    const std::uint64_t checksum = xxh64(code);
    it = artifacts
             .emplace(std::move(key), PackageEntry{info.type_name, info.version,
                                                   std::move(code), checksum})
             .first;
  }
  return it->second;
}

std::size_t ComponentPackage::total_code_size() const {
  std::size_t total = 0;
  for (const auto& entry : entries_) total += entry.code.size();
  return total;
}

void ComponentPackage::add_type(const ComponentRegistry& registry,
                                const std::string& type_name) {
  add(PackageEntry::for_type(registry.info(type_name)));
}

Bytes ComponentPackage::encode() const {
  // One buffer for the whole blob: a varint takes at most 10 bytes.
  std::size_t size = 20 + name_.size();
  for (const auto& entry : entries_) {
    size += 32 + entry.type_name.size() + entry.code.size();
  }
  ByteWriter w;
  w.reserve(size);
  w.write_string(name_);
  w.write_varint(entries_.size());
  for (const auto& entry : entries_) {
    w.write_string(entry.type_name);
    w.write_u32(entry.version);
    w.write_bytes(entry.code.bytes());
    w.write_u64(entry.checksum);
  }
  return w.take();
}

ComponentPackage ComponentPackage::decode(const Bytes& data) {
  ByteReader r(data);
  ComponentPackage package(r.read_string());
  const auto n = read_entry_count(r);
  package.entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    PackageEntry entry;
    entry.type_name = r.read_string();
    entry.version = r.read_u32();
    entry.code = r.read_bytes();
    entry.checksum = r.read_u64();
    package.add(std::move(entry));
  }
  if (!r.at_end()) {
    throw ValueError(strf("ComponentPackage::decode: ", r.remaining(),
                          " trailing bytes after the last entry"));
  }
  return package;
}

std::size_t ComponentPackage::count_entries(const Bytes& data) {
  ByteReader r(data);
  (void)r.read_string();
  return read_entry_count(r);
}

Status HostLibrary::install(const PackageEntry& entry) {
  if (xxh64(entry.code.bytes()) != entry.checksum) {
    return {ErrorCode::kFailedPrecondition,
            strf("package entry '", entry.type_name,
                 "' failed checksum verification")};
  }
  auto& version = versions_[entry.type_name];
  version = std::max(version, entry.version);
  return Status::ok();
}

Status HostLibrary::install(const ComponentPackage& package) {
  for (const auto& entry : package.entries()) {
    if (Status s = install(entry); !s.is_ok()) return s;
  }
  return Status::ok();
}

void HostLibrary::install_type(const ComponentRegistry& registry,
                               const std::string& type_name) {
  install(PackageEntry::for_type(registry.info(type_name))).check();
}

void HostLibrary::install_all(const ComponentRegistry& registry) {
  for (const auto& type_name : registry.type_names()) {
    install_type(registry, type_name);
  }
}

bool HostLibrary::installed(const std::string& type_name) const {
  return versions_.contains(type_name);
}

std::uint32_t HostLibrary::version(const std::string& type_name) const {
  const auto it = versions_.find(type_name);
  return it == versions_.end() ? 0 : it->second;
}

std::vector<std::string> HostLibrary::installed_types() const {
  std::vector<std::string> names;
  names.reserve(versions_.size());
  for (const auto& [name, _] : versions_) names.push_back(name);
  return names;
}

void HostLibrary::remove(const std::string& type_name) {
  versions_.erase(type_name);
}

}  // namespace rcs::comp
