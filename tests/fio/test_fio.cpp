#include "fio/fio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fio/propagator_io.hpp"
#include "lattice/gauge.hpp"
#include "lattice/rng.hpp"
#include "temp_path.hpp"

namespace femto::fio {
namespace {

// The byte-at-a-time CRC-32 that crc32 replaced, kept as the reference
// the slicing kernel must equal: one table lookup per byte of the
// reflected polynomial 0xEDB88320, init and xorout 0xFFFFFFFF.
std::uint32_t crc32_bytewise(const void* data, std::size_t n,
                             std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed, 0, 0);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next() >> 56);
  return out;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// 64-bit FNV-1a over @p bytes.
std::uint64_t fnv1a(const std::vector<char>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyAndIncremental) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const char* s = "abcdef";
  const auto whole = crc32(s, 6);
  EXPECT_NE(whole, crc32(s, 5));
  // crc32(b, crc32(a)) == crc32(a || b), at every split of a buffer long
  // enough that both parts cross whole eight-byte steps and tails.
  const auto buf = random_bytes(53, 11);
  const auto all = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split)
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              all)
        << "split " << split;
  EXPECT_EQ(crc32(s + 3, 3, crc32(s, 3)), whole);
  EXPECT_EQ(crc32(nullptr, 0, whole), whole);
}

TEST(Crc32, MatchesBytewiseReference) {
  // Every length 0-64 at every offset 0-7 from an eight-byte boundary:
  // the eight-byte steps, the byte tail and unaligned loads alike.
  const auto buf = random_bytes(64 + 8, 7);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t n = 0; n <= 64; ++n)
      ASSERT_EQ(crc32(buf.data() + off, n),
                crc32_bytewise(buf.data() + off, n))
          << "offset " << off << " length " << n;
  // One 8 MB buffer, about one 12^3x24 column.
  const auto big = random_bytes(std::size_t{8} << 20, 8);
  EXPECT_EQ(crc32(big.data(), big.size()),
            crc32_bytewise(big.data(), big.size()));
}

TEST(FioFile, WriteReadTypedDatasets) {
  File f;
  f.write_f64("/a/x", {1.5, 2.5, 3.5});
  f.write_f32("/a/y", {1.0f, 2.0f});
  f.write_i64("/b/z", {10, 20, 30, 40});
  EXPECT_EQ(f.read_f64("/a/x")[1], 2.5);
  EXPECT_EQ(f.read_f32("/a/y")[0], 1.0f);
  EXPECT_EQ(f.read_i64("/b/z")[3], 40);
  EXPECT_EQ(f.n_datasets(), 3u);
}

TEST(FioFile, DtypeMismatchThrows) {
  File f;
  f.write_f64("/x", {1.0});
  EXPECT_THROW(f.read_f32("/x"), IoError);
  EXPECT_THROW(f.read_i64("/x"), IoError);
}

TEST(FioFile, MissingDatasetThrows) {
  File f;
  EXPECT_THROW(f.read_f64("/nope"), IoError);
  EXPECT_FALSE(f.contains("/nope"));
}

TEST(FioFile, ShapeValidation) {
  File f;
  f.write_f64("/m", {1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(f.dataset("/m").shape.size(), 2u);
  EXPECT_EQ(f.dataset("/m").elements(), 6);
  EXPECT_THROW(f.write_f64("/bad", {1, 2, 3}, {2, 2}), IoError);
}

TEST(FioFile, Attributes) {
  File f;
  f.write_f64("/p", {1.0});
  f.set_attr("/p", "ensemble", "a09m310");
  f.set_attr_f64("/p", "mf", 0.00951);
  EXPECT_EQ(f.attr("/p", "ensemble").value(), "a09m310");
  EXPECT_NEAR(f.attr_f64("/p", "mf"), 0.00951, 1e-12);
  EXPECT_FALSE(f.attr("/p", "missing").has_value());
  EXPECT_THROW(f.attr_f64("/p", "missing"), IoError);
}

TEST(FioFile, ListWithPrefix) {
  File f;
  f.write_f64("/prop/a", {1});
  f.write_f64("/prop/b", {2});
  f.write_f64("/corr/c", {3});
  EXPECT_EQ(f.list("/prop").size(), 2u);
  EXPECT_EQ(f.list().size(), 3u);
  EXPECT_EQ(f.list("/corr")[0], "/corr/c");
}

TEST(FioFile, SaveLoadRoundTrip) {
  const std::string path = test_temp_path("femto_fio_test.bin");
  {
    File f;
    f.write_f64("/data/series", {3.14, 2.71, 1.41}, {3});
    f.write_i64("/meta/ids", {7, 8});
    f.set_attr("/data/series", "desc", "round trip");
    f.save(path);
  }
  File g = File::load(path);
  EXPECT_EQ(g.read_f64("/data/series")[0], 3.14);
  EXPECT_EQ(g.read_i64("/meta/ids")[1], 8);
  EXPECT_EQ(g.attr("/data/series", "desc").value(), "round trip");
  std::remove(path.c_str());
}

TEST(FioFile, CorruptionDetected) {
  const std::string path = test_temp_path("femto_fio_corrupt.bin");
  {
    File f;
    std::vector<double> big(256, 1.25);
    f.write_f64("/payload", big);
    f.save(path);
  }
  // Flip a byte in the middle of the payload.
  {
    std::fstream s(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    s.seekp(200);
    char c = 0x5A;
    s.write(&c, 1);
  }
  EXPECT_THROW(File::load(path), IoError);
  std::remove(path.c_str());
}

// Flips one byte of the file at @p path, @p offset bytes in.
void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream s(path, std::ios::in | std::ios::out | std::ios::binary);
  s.seekg(offset);
  char c = 0;
  s.get(c);
  s.seekp(offset);
  s.put(static_cast<char>(c ^ 0x5A));
}

TEST(FioFile, CorruptionInALaterDatasetNamesIt) {
  // Twelve datasets, written in path order /d00 ... /d11; dataset k holds
  // 256 copies of k + 0.25, so its payload is found by its value.
  const std::string path = test_temp_path("femto_fio_corrupt12.bin");
  File f;
  for (int k = 0; k < 12; ++k)
    f.write_f64((k < 10 ? "/d0" : "/d") + std::to_string(k),
                std::vector<double>(256, k + 0.25));
  f.save(path);
  const auto payload_of = [&](int k) {
    const auto bytes = file_bytes(path);
    const double v = k + 0.25;
    const std::string pattern(reinterpret_cast<const char*>(&v), sizeof(v));
    const auto at = std::search(bytes.begin(), bytes.end(), pattern.begin(),
                                pattern.end());
    EXPECT_NE(at, bytes.end());
    return static_cast<std::streamoff>(at - bytes.begin());
  };
  const auto load_error = [&] {
    try {
      File::load(path);
    } catch (const IoError& e) {
      return std::string(e.what());
    }
    return std::string("no IoError");
  };

  flip_byte(path, payload_of(9) + 1000);
  EXPECT_NE(load_error().find("/d09"), std::string::npos) << load_error();
  // With dataset 11 bad too, the first bad one in file order is named.
  flip_byte(path, payload_of(11) + 1000);
  EXPECT_NE(load_error().find("/d09"), std::string::npos) << load_error();
  std::remove(path.c_str());
}

TEST(FioFile, SavedBytesArePinned) {
  // A fixed file: a Gaussian 4^3x8, l5 = 4 propagator, a hot gauge field,
  // a correlator and attributes.  Its bytes (header layout, payloads and
  // CRC trailers) must stay those the byte-at-a-time CRC wrote; the
  // digest was recorded with that implementation.
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  SpinorField<double> prop(g, 4, Subset::Full);
  prop.gaussian(2018);
  GaugeField<double> u(g);
  hot_gauge(u, 1810);
  File f;
  write_propagator(f, "p0", prop,
                   {.ensemble = "pinned", .config_id = 3, .l5 = 4,
                    .mf = 0.0126, .residual = 1e-10});
  write_gauge(f, "cfg3", u, 0.5931);
  write_correlator(f, "nucleon", {1.0, 0.5, 0.25, 0.125}, "pinned corr");
  f.write_f32("/meta/weights", {0.5f, 1.5f, -2.25f});
  f.set_attr("/meta", "code", "femtoverse");
  f.set_attr_f64("/meta", "beta", 6.1);

  const std::string path = test_temp_path("femto_fio_pinned.bin");
  f.save(path);
  const auto bytes = file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 689037u);
  EXPECT_EQ(fnv1a(bytes), 0xbb6eba84ea0cbb9full)
      << std::hex << fnv1a(bytes);
}

TEST(FioFile, OversizedByteCountRejected) {
  // One dataset "/x": its byte count follows the magic, the dataset
  // count, the path (length + 2 chars), the dtype, the rank and one
  // extent, at 8 + 8 + 10 + 4 + 8 + 8 = 46 bytes.  A corrupt count must
  // give an IoError, not size a buffer from it.
  const std::string path = test_temp_path("femto_fio_oversized.bin");
  {
    File f;
    f.write_f64("/x", {1.0, 2.0});
    f.save(path);
  }
  {
    std::fstream s(path, std::ios::in | std::ios::out | std::ios::binary);
    s.seekg(46);
    std::uint64_t bytes = 0;
    s.read(reinterpret_cast<char*>(&bytes), sizeof(bytes));
    ASSERT_EQ(bytes, 16u);
    bytes = std::uint64_t{1} << 62;
    s.seekp(46);
    s.write(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
  }
  EXPECT_THROW(File::load(path), IoError);
  std::remove(path.c_str());
}

TEST(FioFile, BadMagicRejected) {
  const std::string path = test_temp_path("femto_fio_magic.bin");
  {
    std::ofstream s(path, std::ios::binary);
    s << "this is not a femto file at all, padding padding";
  }
  EXPECT_THROW(File::load(path), IoError);
  std::remove(path.c_str());
}

TEST(FioFile, MissingFileThrows) {
  EXPECT_THROW(File::load(test_temp_path("no_such_femto_file.bin")),
               IoError);
}

TEST(FioFile, OverwriteDataset) {
  File f;
  f.write_f64("/x", {1.0});
  f.write_f64("/x", {2.0, 3.0});
  EXPECT_EQ(f.read_f64("/x").size(), 2u);
}

}  // namespace
}  // namespace femto::fio
