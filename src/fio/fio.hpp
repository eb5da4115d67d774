#pragma once
// femtoio: a small hierarchical binary container standing in for parallel
// HDF5 (the paper writes propagators and contraction results via HDF5,
// ref. [19]; I/O is ~0.5% of the application budget).
//
// The container models the parts of HDF5 the workflow needs:
//   * groups: "/" separated paths
//   * typed n-dimensional datasets (f64, f32, i64, u8)
//   * string attributes attached to any path
//   * per-dataset CRC-32 integrity, verified on load
//
// A File is an in-memory tree with save()/load() to a single binary blob;
// propagator and correlator schemas sit on top (propagator_io.hpp).
//
// The I/O runs at memory speed (DESIGN.md §18).  A field goes into its
// dataset with one copy and comes back out with one (the pointer-and-size
// write_*/read_* bodies, which the vector overloads forward to).  crc32
// is a slicing-by-8 kernel, eight bytes per step through eight tables;
// save() computes every dataset's CRC in one launch on the thread pool
// before it writes, and load() reads every dataset and verifies them all
// in one launch, reporting the first bad one in file order whatever the
// thread count.  The bytes of a saved file are fixed by the format alone,
// not by the thread count or the CRC kernel; FioFile.SavedBytesArePinned
// holds them to a recorded digest.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace femto::fio {

enum class DType : std::uint8_t { F64 = 0, F32 = 1, I64 = 2, U8 = 3 };

std::size_t dtype_size(DType t);
const char* to_string(DType t);

/// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
/// 0xFFFFFFFF), slicing-by-8.  Incremental: passing the CRC of a prefix
/// as @p seed continues it, crc32(b, crc32(a)) == crc32(a || b).
std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0);

/// A typed n-dimensional array.
struct Dataset {
  DType dtype = DType::U8;
  std::vector<std::int64_t> shape;
  std::vector<std::byte> raw;

  std::int64_t elements() const {
    std::int64_t n = 1;
    for (auto d : shape) n *= d;
    return n;
  }
};

/// Error thrown on malformed files or checksum mismatches.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class File {
 public:
  // -- writing ------------------------------------------------------------
  // Each writes a copy of its @p n elements at @p data (the vector
  // overloads: of the vector) as one dataset, replacing any at @p path.
  // An empty @p shape means {n}; otherwise its product must be n.
  void write_f64(const std::string& path, const double* data, std::size_t n,
                 std::vector<std::int64_t> shape = {});
  void write_f32(const std::string& path, const float* data, std::size_t n,
                 std::vector<std::int64_t> shape = {});
  void write_i64(const std::string& path, const std::int64_t* data,
                 std::size_t n, std::vector<std::int64_t> shape = {});
  void write_f64(const std::string& path, const std::vector<double>& data,
                 std::vector<std::int64_t> shape = {});
  void write_f32(const std::string& path, const std::vector<float>& data,
                 std::vector<std::int64_t> shape = {});
  void write_i64(const std::string& path,
                 const std::vector<std::int64_t>& data,
                 std::vector<std::int64_t> shape = {});
  void write_bytes(const std::string& path,
                   const std::vector<std::byte>& data);

  void set_attr(const std::string& path, const std::string& key,
                const std::string& value);
  void set_attr_f64(const std::string& path, const std::string& key,
                    double value);

  // -- reading ------------------------------------------------------------
  bool contains(const std::string& path) const;
  const Dataset& dataset(const std::string& path) const;
  // Each copies the dataset at @p path into @p n elements at @p out; throws
  // IoError when it is missing, of another dtype, or not n elements.
  void read_f64(const std::string& path, double* out, std::size_t n) const;
  void read_f32(const std::string& path, float* out, std::size_t n) const;
  void read_i64(const std::string& path, std::int64_t* out,
                std::size_t n) const;
  std::vector<double> read_f64(const std::string& path) const;
  std::vector<float> read_f32(const std::string& path) const;
  std::vector<std::int64_t> read_i64(const std::string& path) const;

  std::optional<std::string> attr(const std::string& path,
                                  const std::string& key) const;
  double attr_f64(const std::string& path, const std::string& key) const;

  /// All dataset paths under a prefix ("" = all), sorted.
  std::vector<std::string> list(const std::string& prefix = "") const;

  std::size_t n_datasets() const { return datasets_.size(); }

  // -- persistence ----------------------------------------------------------
  /// Serialise to disk; every dataset gets a CRC-32 trailer.
  void save(const std::string& filename) const;
  /// Load and verify; throws IoError on corruption or version mismatch,
  /// naming the first dataset in file order whose CRC does not match.
  static File load(const std::string& filename);

 private:
  template <typename T>
  void write_typed(const std::string& path, DType dtype, const T* data,
                   std::size_t n, std::vector<std::int64_t> shape);
  template <typename T>
  void read_typed(const std::string& path, DType dtype, T* out,
                  std::size_t n) const;

  std::map<std::string, Dataset> datasets_;
  std::map<std::string, std::map<std::string, std::string>> attrs_;
};

}  // namespace femto::fio
