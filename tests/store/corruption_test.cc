// Corruption handling: a damaged, truncated or version-mismatched store
// file must be rejected with a clear error and quarantined — never crash,
// never serve bad data, never wedge the slot (ISSUE 4 satellite; the CI
// sanitize job runs this suite under ASan+UBSan, so every rejection path
// is also exercised for memory safety).

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/index_cache.h"
#include "store/index_file.h"
#include "store/index_store.h"
#include "store/mapped_index.h"
#include "testing/paper_fixtures.h"
#include "util/checksum.h"

namespace jinfer {
namespace store {
namespace {

namespace fs = std::filesystem;

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("jinfer_corruption_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    auto store = IndexStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<IndexStore>(std::move(store).ValueOrDie());

    auto built = core::SignatureIndex::Build(testing::Example21R(),
                                             testing::Example21P());
    ASSERT_TRUE(built.ok());
    fp_ = FingerprintInstance(testing::Example21R(), testing::Example21P(),
                              true);
    good_bytes_ = SerializeIndexFile(*built, fp_);
    ASSERT_TRUE(store_->Put(*built, fp_).ok());
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Overwrites the stored file with `bytes` (bypassing Put's checksum).
  void WriteRaw(const std::vector<uint8_t>& bytes) {
    std::ofstream out(store_->PathFor(fp_), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  size_t QuarantineCount() const {
    std::error_code ec;
    size_t n = 0;
    fs::path qdir = fs::path(dir_) / "quarantine";
    if (fs::exists(qdir, ec)) {
      for ([[maybe_unused]] const auto& entry :
           fs::directory_iterator(qdir, ec)) {
        ++n;
      }
    }
    return n;
  }

  /// The load must fail with a ParseError mentioning quarantine, the file
  /// must be gone from its slot, and the quarantine dir must hold it.
  void ExpectRejectedAndQuarantined(size_t expected_quarantined) {
    auto loaded = store_->Load(fp_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("quarantined"),
              std::string::npos)
        << loaded.status().ToString();
    EXPECT_FALSE(store_->Contains(fp_));
    EXPECT_EQ(QuarantineCount(), expected_quarantined);
    EXPECT_EQ(store_->stats().quarantined, expected_quarantined);
  }

  std::string dir_;
  std::unique_ptr<IndexStore> store_;
  InstanceFingerprint fp_;
  std::vector<uint8_t> good_bytes_;
};

TEST_F(CorruptionTest, TruncationAtEveryRegionIsRejected) {
  // Header cut, mid-section cut, missing footer: all must fail cleanly.
  const size_t cuts[] = {0, 1, sizeof(IndexFileHeader) / 2,
                         sizeof(IndexFileHeader), good_bytes_.size() / 2,
                         good_bytes_.size() - sizeof(IndexFileFooter),
                         good_bytes_.size() - 1};
  size_t quarantined = 0;
  for (size_t cut : cuts) {
    std::vector<uint8_t> bytes(good_bytes_.begin(),
                               good_bytes_.begin() + cut);
    WriteRaw(bytes);
    ExpectRejectedAndQuarantined(++quarantined);
    // Re-persisting after quarantine repopulates the slot.
    auto rebuilt = core::SignatureIndex::Build(testing::Example21R(),
                                               testing::Example21P());
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_TRUE(store_->Put(*rebuilt, fp_).ok());
    ASSERT_TRUE(store_->Load(fp_).ok());
  }
}

TEST_F(CorruptionTest, EveryFlippedByteIsCaught) {
  // Flip one byte in each region of the file (header fields, every
  // section, the footer): the checksum (or a field check) must catch it.
  // Exhaustive flipping is cheap at this file size.
  size_t quarantined = 0;
  for (size_t pos = 0; pos < good_bytes_.size();
       pos += 13) {  // Stride keeps the test fast; regions stay covered.
    std::vector<uint8_t> bytes = good_bytes_;
    bytes[pos] ^= 0x40;
    WriteRaw(bytes);
    auto loaded = store_->Load(fp_);
    ASSERT_FALSE(loaded.ok()) << "undetected flip at byte " << pos;
    EXPECT_TRUE(loaded.status().IsParseError());
    EXPECT_EQ(QuarantineCount(), ++quarantined);
  }
}

TEST_F(CorruptionTest, BadMagicIsRejected) {
  std::vector<uint8_t> bytes = good_bytes_;
  std::memset(bytes.data(), 0xab, 4);
  WriteRaw(bytes);
  auto loaded = store_->Load(fp_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(CorruptionTest, FutureVersionIsRejectedWithClearError) {
  // A version bump from a newer build: refuse loudly, keep the file for
  // the newer runtime (quarantine still applies — this runtime cannot
  // verify it, so it must not stay in the hot slot masking rebuilds).
  std::vector<uint8_t> bytes = good_bytes_;
  const uint32_t future_version = kIndexFileVersion + 7;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  // Re-seal the checksum so the *version check itself* fires, not the
  // checksum: proves version gating is independent of integrity gating.
  const uint64_t checksum = util::Checksum64Of(
      bytes.data(), bytes.size() - sizeof(IndexFileFooter));
  std::memcpy(bytes.data() + bytes.size() - sizeof(IndexFileFooter),
              &checksum, sizeof(checksum));
  WriteRaw(bytes);
  auto loaded = store_->Load(fp_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CorruptionTest, MalformedNamesSectionIsRejected) {
  // Each edit below re-seals the checksum, as the version test does, so
  // the names reader's own checks fire rather than the checksum's.
  IndexFileHeader header;
  std::memcpy(&header, good_bytes_.data(), sizeof(header));
  const uint64_t names_offset = header.sections[kSectionNames].offset;
  // Walk to the last string's u32 length prefix (the last P attribute).
  size_t last = names_offset;
  uint32_t last_len = 0;
  const uint32_t num_names = 2 + header.num_r_attrs + header.num_p_attrs;
  for (uint32_t i = 0; i < num_names; ++i) {
    if (i > 0) last += sizeof(uint32_t) + last_len;
    std::memcpy(&last_len, good_bytes_.data() + last, sizeof(last_len));
  }
  ASSERT_GT(last_len, 0u);

  const auto expect_rejected = [&](std::vector<uint8_t> bytes,
                                   const std::string& why,
                                   size_t quarantined) {
    const uint64_t checksum = util::Checksum64Of(
        bytes.data(), bytes.size() - sizeof(IndexFileFooter));
    std::memcpy(bytes.data() + bytes.size() - sizeof(IndexFileFooter),
                &checksum, sizeof(checksum));
    auto view = ValidateIndexFile(bytes);
    ASSERT_FALSE(view.ok()) << why;
    EXPECT_TRUE(view.status().IsParseError()) << view.status().ToString();
    EXPECT_NE(view.status().message().find(why), std::string::npos)
        << view.status().ToString();
    WriteRaw(bytes);
    ExpectRejectedAndQuarantined(quarantined);
  };

  // The section ends two bytes into the last length prefix.
  std::vector<uint8_t> cut = good_bytes_;
  IndexFileHeader cut_header = header;
  cut_header.sections[kSectionNames].bytes = last - names_offset + 2;
  std::memcpy(cut.data(), &cut_header, sizeof(cut_header));
  expect_rejected(cut, "missing length", 1);

  // The last string claims one byte more than the section holds.
  std::vector<uint8_t> overrun = good_bytes_;
  const uint32_t longer = last_len + 1;
  std::memcpy(overrun.data() + last, &longer, sizeof(longer));
  expect_rejected(overrun, "string overruns section", 2);

  // The last string claims one byte less: one byte is left over.
  std::vector<uint8_t> trailing = good_bytes_;
  const uint32_t shorter = last_len - 1;
  std::memcpy(trailing.data() + last, &shorter, sizeof(shorter));
  expect_rejected(trailing, "trailing bytes", 3);
}

TEST_F(CorruptionTest, ClassSignatureOutsideOmegaIsRejected) {
  // A stray signature bit at |Ω| in the last class record, under a
  // resealed checksum: every other check passes, so FromSections' Ω check
  // must refuse it before anything formats or buckets that signature.
  IndexFileHeader header;
  std::memcpy(&header, good_bytes_.data(), sizeof(header));
  ASSERT_GT(header.num_classes, 0u);
  const uint64_t last = header.num_classes - 1;
  const size_t record = header.sections[kSectionClasses].offset +
                        last * sizeof(core::SignatureClass);
  std::vector<uint8_t> bytes = good_bytes_;
  core::SignatureClass sc;
  std::memcpy(&sc, bytes.data() + record, sizeof(sc));
  sc.signature.Set(size_t{header.num_r_attrs} * header.num_p_attrs);
  std::memcpy(bytes.data() + record, &sc, sizeof(sc));
  const uint64_t checksum = util::Checksum64Of(
      bytes.data(), bytes.size() - sizeof(IndexFileFooter));
  std::memcpy(bytes.data() + bytes.size() - sizeof(IndexFileFooter),
              &checksum, sizeof(checksum));
  ASSERT_TRUE(ValidateIndexFile(bytes).ok());
  WriteRaw(bytes);

  auto mapped = LoadMappedIndex(store_->PathFor(fp_));
  ASSERT_FALSE(mapped.ok());
  EXPECT_TRUE(mapped.status().IsParseError()) << mapped.status().ToString();
  EXPECT_NE(mapped.status().message().find(
                "class " + std::to_string(last) + " has a signature outside"),
            std::string::npos)
      << mapped.status().ToString();
  ExpectRejectedAndQuarantined(1);
}

TEST_F(CorruptionTest, ForeignByteOrderIsRejected) {
  std::vector<uint8_t> bytes = good_bytes_;
  const uint32_t swapped = 0x04030201;  // kByteOrderMarker byte-swapped.
  std::memcpy(bytes.data() + 8, &swapped, sizeof(swapped));
  const uint64_t checksum = util::Checksum64Of(
      bytes.data(), bytes.size() - sizeof(IndexFileFooter));
  std::memcpy(bytes.data() + bytes.size() - sizeof(IndexFileFooter),
              &checksum, sizeof(checksum));
  WriteRaw(bytes);
  auto loaded = store_->Load(fp_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("byte-order"), std::string::npos);
}

TEST_F(CorruptionTest, RenamedFileFailsTheFingerprintCheck) {
  // A file copied under another fingerprint's name validates internally
  // but must still be refused: serving it would alias two instances.
  InstanceFingerprint other = fp_;
  other.lo ^= 1;
  std::error_code ec;
  fs::copy_file(store_->PathFor(fp_), store_->PathFor(other), ec);
  ASSERT_FALSE(ec);
  auto loaded = store_->Load(other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
  EXPECT_FALSE(store_->Contains(other));  // Quarantined.
  // The original, correctly-named file is untouched.
  ASSERT_TRUE(store_->Load(fp_).ok());
}

TEST_F(CorruptionTest, GarbageFileIsRejected) {
  std::vector<uint8_t> garbage(4096);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  WriteRaw(garbage);
  ExpectRejectedAndQuarantined(1);
}

TEST_F(CorruptionTest, EmptyFileIsRejected) {
  WriteRaw({});
  auto loaded = store_->Load(fp_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_FALSE(store_->Contains(fp_));
}

TEST_F(CorruptionTest, PutReplacesACorruptLeftoverInsteadOfSkipping) {
  // Content-addressed skip must not trust file *existence*: if a corrupt
  // file is still sitting in the slot (e.g. quarantine could not run),
  // Put has to quarantine it and write fresh bytes, or the slot would
  // stay wedged across every future process.
  std::vector<uint8_t> bytes = good_bytes_;
  bytes[bytes.size() / 3] ^= 0x10;
  WriteRaw(bytes);

  auto rebuilt = core::SignatureIndex::Build(testing::Example21R(),
                                             testing::Example21P());
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(store_->Put(*rebuilt, fp_).ok());
  EXPECT_EQ(store_->stats().quarantined, 1u);
  EXPECT_EQ(store_->stats().skipped_writes, 0u);
  ASSERT_TRUE(store_->Load(fp_).ok());  // Healed.
}

TEST_F(CorruptionTest, CacheFallsBackToBuildOverACorruptStore) {
  // End to end through the runtime: a corrupt store file must cost one
  // rebuild (tier "built"), not an error and not a crash; the rebuilt
  // index is persisted back, so the *next* cache starts from "mapped".
  std::vector<uint8_t> bytes = good_bytes_;
  bytes[bytes.size() / 2] ^= 0xff;
  WriteRaw(bytes);

  auto shared_store = std::make_shared<IndexStore>(std::move(*store_));
  store_.reset();
  runtime::IndexCache cache(
      runtime::IndexCacheOptions{{}, runtime::kDefaultIndexCacheCapacity,
                                 shared_store});
  auto tiered = cache.GetOrBuildTiered(testing::Example21R(),
                                       testing::Example21P());
  ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
  EXPECT_EQ(tiered->tier, runtime::IndexTier::kBuilt);
  EXPECT_EQ(shared_store->stats().quarantined, 1u);

  runtime::IndexCache fresh_cache(
      runtime::IndexCacheOptions{{}, runtime::kDefaultIndexCacheCapacity,
                                 shared_store});
  auto remapped = fresh_cache.GetOrBuildTiered(testing::Example21R(),
                                               testing::Example21P());
  ASSERT_TRUE(remapped.ok());
  EXPECT_EQ(remapped->tier, runtime::IndexTier::kMapped);
}

}  // namespace
}  // namespace store
}  // namespace jinfer
