#include "rcs/component/package.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "test_types.hpp"

namespace rcs::comp {
namespace {

struct PackageFixture : ::testing::Test {
  ComponentRegistry registry = testing::make_test_registry();
};

TEST_F(PackageFixture, EntryCodeMatchesDeclaredSize) {
  const auto& info = registry.info("test.echo");
  const auto entry = PackageEntry::for_type(info);
  EXPECT_EQ(entry.code.size(), info.code_size);
  EXPECT_EQ(entry.checksum, xxh64(entry.code.bytes()));
}

TEST_F(PackageFixture, CodeIsDeterministicPerTypeAndDiffersAcrossTypes) {
  const auto a1 = PackageEntry::for_type(registry.info("test.echo"));
  const auto a2 = PackageEntry::for_type(registry.info("test.echo"));
  const auto b = PackageEntry::for_type(registry.info("test.upper"));
  EXPECT_EQ(a1.code, a2.code);
  EXPECT_NE(a1.code, b.code);
}

TEST_F(PackageFixture, PackageEncodeDecodeRoundTrip) {
  ComponentPackage package("transition:pbr->lfr");
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");

  const auto decoded = ComponentPackage::decode(package.encode());
  EXPECT_EQ(decoded.name(), "transition:pbr->lfr");
  ASSERT_EQ(decoded.entries().size(), 2u);
  EXPECT_EQ(decoded.entries()[0].type_name, "test.echo");
  EXPECT_EQ(decoded.entries()[0].code, package.entries()[0].code);
  EXPECT_EQ(decoded.total_code_size(), package.total_code_size());
}

TEST_F(PackageFixture, LibraryInstallAndQuery) {
  HostLibrary library;
  EXPECT_FALSE(library.installed("test.echo"));
  library.install_type(registry, "test.echo");
  EXPECT_TRUE(library.installed("test.echo"));
  EXPECT_EQ(library.version("test.echo"), 1u);
  EXPECT_EQ(library.version("missing"), 0u);
}

TEST_F(PackageFixture, InstallRejectsCorruptedCode) {
  HostLibrary library;
  auto entry = PackageEntry::for_type(registry.info("test.echo"));
  // Bit-flip in transit, on a private copy: the shared artifact is
  // immutable.
  Bytes code = entry.code.bytes();
  code[0] ^= 0xFF;
  entry.code = std::move(code);
  const Status s = library.install(entry);
  EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(library.installed("test.echo"));

  // The artifact every other package shares is untouched.
  EXPECT_TRUE(library.install(PackageEntry::for_type(registry.info("test.echo")))
                  .is_ok());
}

TEST_F(PackageFixture, InstallRejectsABitFlipInTheEncodedBlob) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  Bytes blob = package.encode();
  // The blob ends with the entry's code and then its 8-byte checksum: flip
  // a byte in the middle of the code, as a corrupted upload would.
  const std::size_t code_size = registry.info("test.echo").code_size;
  blob[blob.size() - 8 - code_size / 2] ^= 0x10;

  const auto decoded = ComponentPackage::decode(blob);
  ASSERT_EQ(decoded.entries().size(), 1u);
  HostLibrary library;
  EXPECT_EQ(library.install(decoded).code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(library.installed("test.echo"));
}

TEST_F(PackageFixture, InstallRejectsAFlipInAnyByteOfTheCode) {
  // Install hashes every byte: one flipped bit at any offset is caught.
  const auto artifact = PackageEntry::for_type(registry.info("test.echo"));
  const Bytes& code = artifact.code.bytes();
  HostLibrary library;
  for (std::size_t i = 0; i < code.size(); ++i) {
    Bytes corrupted = code;
    corrupted[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    PackageEntry entry = artifact;
    entry.code = std::move(corrupted);
    ASSERT_EQ(library.install(entry).code(), ErrorCode::kFailedPrecondition)
        << "byte " << i;
  }
  EXPECT_FALSE(library.installed("test.echo"));
}

TEST_F(PackageFixture, DecodeRejectsATruncatedBlob) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");
  const Bytes blob = package.encode();
  for (const std::size_t cut : {std::size_t{1}, std::size_t{8}, std::size_t{9},
                                blob.size() / 2, blob.size() - 1}) {
    const Bytes truncated(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)ComponentPackage::decode(truncated), ValueError)
        << "cut at " << cut;
  }
}

TEST_F(PackageFixture, DecodeRejectsATrailingByte) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  Bytes blob = package.encode();
  blob.push_back(0);
  EXPECT_THROW((void)ComponentPackage::decode(blob), ValueError);
}

TEST_F(PackageFixture, DecodeRejectsACountTheBytesCannotHold) {
  ByteWriter w;
  w.write_string("p");
  w.write_varint(std::uint64_t{1} << 62);
  w.write_u64(0);  // 8 bytes left: not even one 14-byte entry
  EXPECT_THROW((void)ComponentPackage::decode(w.buffer()), ValueError);
  EXPECT_THROW((void)ComponentPackage::count_entries(w.buffer()), ValueError);
}

TEST_F(PackageFixture, CountEntriesReadsTheHeader) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  package.add_type(registry, "test.upper");
  EXPECT_EQ(ComponentPackage::count_entries(package.encode()), 2u);
  EXPECT_EQ(ComponentPackage::count_entries(ComponentPackage("e").encode()), 0u);
}

TEST_F(PackageFixture, ArtifactsAreKeyedOnEverythingTheCodeDependsOn) {
  ComponentTypeInfo small = registry.info("test.echo");
  small.code_size = 1'000;
  ComponentTypeInfo newer = registry.info("test.echo");
  newer.version = 2;
  const auto base = PackageEntry::for_type(registry.info("test.echo"));
  const auto a = PackageEntry::for_type(small);
  const auto b = PackageEntry::for_type(newer);
  EXPECT_EQ(a.code.size(), 1'000u);
  EXPECT_EQ(b.version, 2u);
  EXPECT_NE(b.code, base.code);
  EXPECT_EQ(base.code.size(), registry.info("test.echo").code_size);
}

TEST_F(PackageFixture, ConcurrentFetchesShareOneArtifact) {
  // A size no other test uses, so the four threads race for its first build.
  ComponentTypeInfo info = registry.info("test.upper");
  info.code_size = 31'337;
  constexpr int kThreads = 4;
  std::vector<PackageEntry> fetched(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&fetched, &info, i] {
      fetched[static_cast<std::size_t>(i)] = PackageEntry::for_type(info);
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto& entry : fetched) {
    EXPECT_EQ(entry.code.size(), info.code_size);
    EXPECT_EQ(entry.checksum, xxh64(entry.code.bytes()));
    EXPECT_EQ(entry.checksum, fetched.front().checksum);
    EXPECT_EQ(entry.code, fetched.front().code);
    EXPECT_EQ(&entry.code.bytes(), &fetched.front().code.bytes())
        << "the artifact was built more than once";
  }
}

TEST_F(PackageFixture, InstallPackageStopsAtFirstFailure) {
  HostLibrary library;
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  auto bad = PackageEntry::for_type(registry.info("test.upper"));
  bad.checksum ^= 1;
  package.add(bad);
  package.add_type(registry, "test.other");

  const Status s = library.install(package);
  EXPECT_FALSE(s.is_ok());
  EXPECT_TRUE(library.installed("test.echo"));
  EXPECT_FALSE(library.installed("test.other")) << "install stops at failure";
}

TEST_F(PackageFixture, ReinstallUpgradesVersion) {
  HostLibrary library;
  auto entry = PackageEntry::for_type(registry.info("test.echo"));
  library.install(entry).check();
  entry.version = 3;
  library.install(entry).check();
  EXPECT_EQ(library.version("test.echo"), 3u);
  // Downgrade attempts keep the newer version.
  entry.version = 2;
  library.install(entry).check();
  EXPECT_EQ(library.version("test.echo"), 3u);
}

TEST_F(PackageFixture, RemoveUninstalls) {
  HostLibrary library;
  library.install_type(registry, "test.echo");
  library.remove("test.echo");
  EXPECT_FALSE(library.installed("test.echo"));
}

TEST_F(PackageFixture, InstallAllCoversRegistry) {
  HostLibrary library;
  library.install_all(registry);
  EXPECT_EQ(library.installed_types().size(), registry.type_names().size());
}

TEST_F(PackageFixture, TotalCodeSizeSumsEntries) {
  ComponentPackage package("p");
  package.add_type(registry, "test.echo");
  const auto one = package.total_code_size();
  package.add_type(registry, "test.upper");
  EXPECT_EQ(package.total_code_size(),
            one + registry.info("test.upper").code_size);
}

}  // namespace
}  // namespace rcs::comp
