#include "store/index_file.h"

#include <cstring>
#include <limits>

#include "util/checksum.h"
#include "util/string_util.h"

namespace jinfer {
namespace store {

namespace {

size_t AlignUp(size_t n) {
  return (n + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// Appends `len` bytes to `out`.
void AppendBytes(std::vector<uint8_t>& out, const void* data, size_t len) {
  if (len == 0) return;
  const size_t at = out.size();
  out.resize(at + len);
  std::memcpy(out.data() + at, data, len);
}

/// Zero-fills `out` up to `offset`, the start of the next section. Zero
/// gaps (not skipped garbage) keep serialization deterministic.
void PadTo(std::vector<uint8_t>& out, size_t offset) {
  JINFER_CHECK(out.size() <= offset, "serializer wrote past section offset");
  out.resize(offset, 0);
}

void AppendString(std::vector<uint8_t>& out, const std::string& s) {
  JINFER_CHECK(s.size() <= std::numeric_limits<uint32_t>::max(),
               "name too long for the index file format");
  uint32_t len = static_cast<uint32_t>(s.size());
  AppendBytes(out, &len, sizeof(len));
  AppendBytes(out, s.data(), s.size());
}

std::vector<uint8_t> EncodeNames(const core::Omega& omega) {
  std::vector<uint8_t> out;
  AppendString(out, omega.r_relation_name());
  for (size_t i = 0; i < omega.num_r_attrs(); ++i) {
    AppendString(out, omega.r_attr_name(i));
  }
  AppendString(out, omega.p_relation_name());
  for (size_t j = 0; j < omega.num_p_attrs(); ++j) {
    AppendString(out, omega.p_attr_name(j));
  }
  return out;
}

/// Sequential reader over the names section; every length is bounds-checked
/// against the section before the bytes are touched.
struct NamesReader {
  const uint8_t* p;
  size_t remaining;

  util::Result<std::string> Next() {
    if (remaining < sizeof(uint32_t)) {
      return util::Status::ParseError(
          "index file: names section truncated (missing length)");
    }
    uint32_t len;
    std::memcpy(&len, p, sizeof(len));
    p += sizeof(len);
    remaining -= sizeof(len);
    if (remaining < len) {
      return util::Status::ParseError(
          "index file: names section truncated (string overruns section)");
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    remaining -= len;
    return s;
  }
};

}  // namespace

std::vector<uint8_t> SerializeIndexFile(
    const core::SignatureIndex& index, const InstanceFingerprint& fingerprint) {
  const std::vector<uint8_t> names = EncodeNames(index.omega());
  const std::span<const core::SignatureClass> classes = index.classes();
  const std::span<const uint32_t> r_codes = index.r_codes();
  const std::span<const uint32_t> p_codes = index.p_codes();

  IndexFileHeader header;  // Aggregate with defaulted members, no padding.
  static_assert(sizeof(IndexFileHeader) ==
                    16 + 16 + 8 + 8 + 8 + 8 + 16 +
                        kNumSections * sizeof(SectionExtent),
                "IndexFileHeader has implicit padding");
  header.flags = index.compressed() ? kFlagCompressed : 0;
  header.fingerprint_hi = fingerprint.hi;
  header.fingerprint_lo = fingerprint.lo;
  header.num_tuples = index.num_tuples();
  header.num_classes = classes.size();
  header.num_r_attrs = static_cast<uint32_t>(index.omega().num_r_attrs());
  header.num_p_attrs = static_cast<uint32_t>(index.omega().num_p_attrs());
  header.num_r_rows = index.num_r_rows();
  header.num_p_rows = index.num_p_rows();

  size_t offset = AlignUp(sizeof(IndexFileHeader));
  const size_t section_bytes[kNumSections] = {
      names.size(), classes.size_bytes(), r_codes.size_bytes(),
      p_codes.size_bytes()};
  for (size_t s = 0; s < kNumSections; ++s) {
    header.sections[s].offset = offset;
    header.sections[s].bytes = section_bytes[s];
    offset = AlignUp(offset + section_bytes[s]);
  }
  header.file_bytes = offset + sizeof(IndexFileFooter);

  std::vector<uint8_t> out;
  out.reserve(header.file_bytes);
  AppendBytes(out, &header, sizeof(header));

  PadTo(out, header.sections[kSectionNames].offset);
  AppendBytes(out, names.data(), names.size());

  // SignatureClass carries 7 trailing padding bytes; write each record
  // through a zeroed staging copy so equal indexes always serialize to
  // equal bytes (content-addressing and the checksum depend on it).
  PadTo(out, header.sections[kSectionClasses].offset);
  for (const core::SignatureClass& sc : classes) {
    alignas(core::SignatureClass) uint8_t staged[sizeof(core::SignatureClass)];
    std::memset(staged, 0, sizeof(staged));
    core::SignatureClass* rec = new (staged) core::SignatureClass;
    rec->signature = sc.signature;
    rec->count = sc.count;
    rec->rep_r = sc.rep_r;
    rec->rep_p = sc.rep_p;
    rec->maximal = sc.maximal;
    AppendBytes(out, staged, sizeof(staged));
  }

  PadTo(out, header.sections[kSectionRCodes].offset);
  AppendBytes(out, r_codes.data(), r_codes.size_bytes());
  PadTo(out, header.sections[kSectionPCodes].offset);
  AppendBytes(out, p_codes.data(), p_codes.size_bytes());

  PadTo(out, header.file_bytes - sizeof(IndexFileFooter));
  IndexFileFooter footer;
  footer.checksum = util::Checksum64Of(out.data(), out.size());
  AppendBytes(out, &footer, sizeof(footer));
  JINFER_CHECK(out.size() == header.file_bytes, "serializer size bookkeeping");
  return out;
}

util::Result<IndexFileView> ValidateIndexFile(std::span<const uint8_t> bytes) {
  if (bytes.size() < sizeof(IndexFileHeader) + sizeof(IndexFileFooter)) {
    return util::Status::ParseError(util::StrFormat(
        "index file: %zu bytes is smaller than header + footer",
        bytes.size()));
  }
  // The header is copied out (it is tiny) so validation never depends on
  // the mapped bytes being aligned; the section casts below are covered by
  // the 64-byte offset alignment checks instead.
  IndexFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));

  if (header.magic != kIndexFileMagic) {
    return util::Status::ParseError(
        util::StrFormat("index file: bad magic 0x%08x", header.magic));
  }
  if (header.byte_order != kByteOrderMarker) {
    return util::Status::ParseError(util::StrFormat(
        "index file: byte-order marker 0x%08x does not match this "
        "platform (file written on a foreign-endian machine?)",
        header.byte_order));
  }
  if (header.version != kIndexFileVersion) {
    return util::Status::ParseError(util::StrFormat(
        "index file: version %u not supported (this build reads version %u)",
        header.version, kIndexFileVersion));
  }
  if (header.file_bytes != bytes.size()) {
    return util::Status::ParseError(util::StrFormat(
        "index file: header claims %llu bytes but the file has %zu "
        "(truncated or over-long)",
        static_cast<unsigned long long>(header.file_bytes), bytes.size()));
  }

  // Checksum before trusting any variable-size content: a single flipped
  // bit anywhere (header included — it was absorbed too) is caught here.
  IndexFileFooter footer;
  std::memcpy(&footer, bytes.data() + bytes.size() - sizeof(footer),
              sizeof(footer));
  if (footer.magic != kIndexFileMagic || footer.reserved != 0) {
    return util::Status::ParseError("index file: bad footer");
  }
  const uint64_t expected =
      util::Checksum64Of(bytes.data(), bytes.size() - sizeof(footer));
  if (footer.checksum != expected) {
    return util::Status::ParseError(util::StrFormat(
        "index file: checksum mismatch (stored %016llx, computed %016llx)",
        static_cast<unsigned long long>(footer.checksum),
        static_cast<unsigned long long>(expected)));
  }

  if (header.num_r_attrs == 0 || header.num_p_attrs == 0 ||
      static_cast<uint64_t>(header.num_r_attrs) * header.num_p_attrs >
          core::JoinPredicate::kMaxBits) {
    return util::Status::ParseError("index file: schema widths out of range");
  }
  // Overflow-safe arithmetic: counts are capped well below 2^64 before any
  // product is formed, and |D| is checked by division — a wrapped multiply
  // must never validate a corrupt header.
  constexpr uint64_t kMaxCount = uint64_t{1} << 40;
  if (header.num_classes > kMaxCount || header.num_r_rows > kMaxCount ||
      header.num_p_rows > kMaxCount) {
    return util::Status::ParseError("index file: counts out of range");
  }
  if (header.num_r_rows == 0 || header.num_p_rows == 0 ||
      header.num_tuples / header.num_r_rows != header.num_p_rows ||
      header.num_tuples % header.num_r_rows != 0) {
    return util::Status::ParseError(
        "index file: row counts inconsistent with num_tuples");
  }

  // Section directory: in-bounds, 64-byte aligned, ascending and disjoint.
  const uint64_t payload_end = header.file_bytes - sizeof(IndexFileFooter);
  uint64_t previous_end = sizeof(IndexFileHeader);
  for (size_t s = 0; s < kNumSections; ++s) {
    const SectionExtent& e = header.sections[s];
    if (e.offset % kSectionAlignment != 0) {
      return util::Status::ParseError(
          util::StrFormat("index file: section %zu misaligned", s));
    }
    if (e.offset < previous_end || e.bytes > payload_end ||
        e.offset > payload_end - e.bytes) {
      return util::Status::ParseError(util::StrFormat(
          "index file: section %zu extent out of bounds or overlapping", s));
    }
    previous_end = e.offset + e.bytes;
  }

  const uint64_t expect_classes =
      header.num_classes * sizeof(core::SignatureClass);
  const uint64_t expect_r = header.num_r_rows * header.num_r_attrs * 4;
  const uint64_t expect_p = header.num_p_rows * header.num_p_attrs * 4;
  if (header.sections[kSectionClasses].bytes != expect_classes ||
      header.sections[kSectionRCodes].bytes != expect_r ||
      header.sections[kSectionPCodes].bytes != expect_p) {
    return util::Status::ParseError(
        "index file: section sizes disagree with the header counts");
  }

  IndexFileView view;
  view.header = reinterpret_cast<const IndexFileHeader*>(bytes.data());
  view.fingerprint = {header.fingerprint_hi, header.fingerprint_lo};
  view.compressed = (header.flags & kFlagCompressed) != 0;

  NamesReader names{bytes.data() + header.sections[kSectionNames].offset,
                    static_cast<size_t>(header.sections[kSectionNames].bytes)};
  JINFER_ASSIGN_OR_RETURN(view.r_relation, names.Next());
  for (uint32_t i = 0; i < header.num_r_attrs; ++i) {
    JINFER_ASSIGN_OR_RETURN(std::string attr, names.Next());
    view.r_attrs.push_back(std::move(attr));
  }
  JINFER_ASSIGN_OR_RETURN(view.p_relation, names.Next());
  for (uint32_t j = 0; j < header.num_p_attrs; ++j) {
    JINFER_ASSIGN_OR_RETURN(std::string attr, names.Next());
    view.p_attrs.push_back(std::move(attr));
  }
  if (names.remaining != 0) {
    return util::Status::ParseError(
        "index file: trailing bytes in the names section");
  }

  view.classes = std::span<const core::SignatureClass>(
      reinterpret_cast<const core::SignatureClass*>(
          bytes.data() + header.sections[kSectionClasses].offset),
      header.num_classes);
  view.r_codes = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(
          bytes.data() + header.sections[kSectionRCodes].offset),
      header.num_r_rows * header.num_r_attrs);
  view.p_codes = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(
          bytes.data() + header.sections[kSectionPCodes].offset),
      header.num_p_rows * header.num_p_attrs);
  return view;
}

}  // namespace store
}  // namespace jinfer
