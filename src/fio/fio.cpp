#include "fio/fio.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "lattice/flops.hpp"
#include "parallel/thread_pool.hpp"

namespace femto::fio {

std::size_t dtype_size(DType t) {
  switch (t) {
    case DType::F64: return 8;
    case DType::F32: return 4;
    case DType::I64: return 8;
    default: return 1;
  }
}

const char* to_string(DType t) {
  switch (t) {
    case DType::F64: return "f64";
    case DType::F32: return "f32";
    case DType::I64: return "i64";
    default: return "u8";
  }
}

namespace {

// Slicing-by-8 tables of the reflected polynomial: kCrcTables[0] is the
// byte-at-a-time table, and kCrcTables[k][b] is the CRC register after
// byte b is followed by k zero bytes, so one step folds eight bytes with
// eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

template <typename T>
void File::write_typed(const std::string& path, DType dtype, const T* data,
                       std::size_t n, std::vector<std::int64_t> shape) {
  Dataset ds;
  ds.dtype = dtype;
  ds.shape = shape.empty()
                 ? std::vector<std::int64_t>{static_cast<std::int64_t>(n)}
                 : std::move(shape);
  std::int64_t count = 1;
  for (auto d : ds.shape) count *= d;
  if (count != static_cast<std::int64_t>(n))
    throw IoError("fio: shape does not match data size for " + path);
  // Byte view of the elements; std::byte may alias anything.
  const auto* bytes = reinterpret_cast<const std::byte*>(data);
  ds.raw.assign(bytes, bytes + n * sizeof(T));
  datasets_[path] = std::move(ds);
}

void File::write_f64(const std::string& path, const double* data,
                     std::size_t n, std::vector<std::int64_t> shape) {
  write_typed(path, DType::F64, data, n, std::move(shape));
}
void File::write_f32(const std::string& path, const float* data,
                     std::size_t n, std::vector<std::int64_t> shape) {
  write_typed(path, DType::F32, data, n, std::move(shape));
}
void File::write_i64(const std::string& path, const std::int64_t* data,
                     std::size_t n, std::vector<std::int64_t> shape) {
  write_typed(path, DType::I64, data, n, std::move(shape));
}
void File::write_f64(const std::string& path, const std::vector<double>& d,
                     std::vector<std::int64_t> shape) {
  write_f64(path, d.data(), d.size(), std::move(shape));
}
void File::write_f32(const std::string& path, const std::vector<float>& d,
                     std::vector<std::int64_t> shape) {
  write_f32(path, d.data(), d.size(), std::move(shape));
}
void File::write_i64(const std::string& path,
                     const std::vector<std::int64_t>& d,
                     std::vector<std::int64_t> shape) {
  write_i64(path, d.data(), d.size(), std::move(shape));
}
void File::write_bytes(const std::string& path,
                       const std::vector<std::byte>& data) {
  Dataset ds;
  ds.dtype = DType::U8;
  ds.shape = {static_cast<std::int64_t>(data.size())};
  ds.raw = data;
  datasets_[path] = std::move(ds);
}

void File::set_attr(const std::string& path, const std::string& key,
                    const std::string& value) {
  attrs_[path][key] = value;
}
void File::set_attr_f64(const std::string& path, const std::string& key,
                        double value) {
  // std::to_string truncates to 6 decimals; keep full precision.
  std::ostringstream os;
  os.precision(17);
  os << value;
  set_attr(path, key, os.str());
}

bool File::contains(const std::string& path) const {
  return datasets_.count(path) > 0;
}

const Dataset& File::dataset(const std::string& path) const {
  auto it = datasets_.find(path);
  if (it == datasets_.end()) throw IoError("fio: no dataset " + path);
  return it->second;
}

template <typename T>
void File::read_typed(const std::string& path, DType dtype, T* out,
                      std::size_t n) const {
  const Dataset& ds = dataset(path);
  if (ds.dtype != dtype)
    throw IoError("fio: dtype mismatch reading " + path + " (stored " +
                  to_string(ds.dtype) + ", requested " + to_string(dtype) +
                  ")");
  if (ds.raw.size() != n * sizeof(T))
    throw IoError("fio: " + path + " holds " +
                  std::to_string(ds.raw.size() / sizeof(T)) +
                  " elements, not " + std::to_string(n));
  // Byte view of the elements; std::byte may alias anything.
  std::copy(ds.raw.begin(), ds.raw.end(), reinterpret_cast<std::byte*>(out));
}

void File::read_f64(const std::string& path, double* out,
                    std::size_t n) const {
  read_typed(path, DType::F64, out, n);
}
void File::read_f32(const std::string& path, float* out,
                    std::size_t n) const {
  read_typed(path, DType::F32, out, n);
}
void File::read_i64(const std::string& path, std::int64_t* out,
                    std::size_t n) const {
  read_typed(path, DType::I64, out, n);
}

std::vector<double> File::read_f64(const std::string& path) const {
  std::vector<double> out(dataset(path).raw.size() / sizeof(double));
  read_f64(path, out.data(), out.size());
  return out;
}
std::vector<float> File::read_f32(const std::string& path) const {
  std::vector<float> out(dataset(path).raw.size() / sizeof(float));
  read_f32(path, out.data(), out.size());
  return out;
}
std::vector<std::int64_t> File::read_i64(const std::string& path) const {
  std::vector<std::int64_t> out(dataset(path).raw.size() /
                                sizeof(std::int64_t));
  read_i64(path, out.data(), out.size());
  return out;
}

std::optional<std::string> File::attr(const std::string& path,
                                      const std::string& key) const {
  auto it = attrs_.find(path);
  if (it == attrs_.end()) return std::nullopt;
  auto jt = it->second.find(key);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

double File::attr_f64(const std::string& path, const std::string& key) const {
  auto v = attr(path, key);
  if (!v) throw IoError("fio: no attribute " + path + ":" + key);
  return std::stod(*v);
}

std::vector<std::string> File::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, ds] : datasets_) {
    (void)ds;
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

namespace {

constexpr std::uint64_t kMagic = 0xFE3370F17E000001ull;  // "femtofile" v1

void put_u64(std::ofstream& out, std::uint64_t v) {
  // iostream byte I/O; char* may alias anything.
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u32(std::ofstream& out, std::uint32_t v) {
  // iostream byte I/O; char* may alias anything.
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::ofstream& out, const std::string& s) {
  put_u64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::uint64_t get_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  // iostream byte I/O; char* may alias anything.
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw IoError("fio: truncated file");
  return v;
}
std::uint32_t get_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  // iostream byte I/O; char* may alias anything.
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw IoError("fio: truncated file");
  return v;
}
std::string get_str(std::ifstream& in) {
  const auto n = get_u64(in);
  if (n > (1ull << 32)) throw IoError("fio: implausible string length");
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  if (!in) throw IoError("fio: truncated file");
  return s;
}

// The CRC-32 of every dataset in @p ds, in one launch: datasets are the
// unit of work (a propagator file's 12 equal columns fill a 4-thread
// pool), so no CRC is ever split and recombined.  The pass reads each
// payload once.
std::vector<std::uint32_t> dataset_crcs(
    const std::vector<const Dataset*>& ds) {
  std::int64_t bytes = 0;
  for (const Dataset* d : ds)
    bytes += static_cast<std::int64_t>(d->raw.size());
  flops::add_bytes(bytes);
  std::vector<std::uint32_t> crcs(ds.size());
  par::parallel_for(0, ds.size(), [&](std::size_t i) {
    crcs[i] = crc32(ds[i]->raw.data(), ds[i]->raw.size());
  });
  return crcs;
}

}  // namespace

void File::save(const std::string& filename) const {
  std::vector<const Dataset*> order;
  order.reserve(datasets_.size());
  for (const auto& [path, ds] : datasets_) order.push_back(&ds);
  const std::vector<std::uint32_t> crcs = dataset_crcs(order);

  std::ofstream out(filename, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("fio: cannot open " + filename + " for writing");
  put_u64(out, kMagic);
  put_u64(out, datasets_.size());
  std::size_t i = 0;
  for (const auto& [path, ds] : datasets_) {
    put_str(out, path);
    put_u32(out, static_cast<std::uint32_t>(ds.dtype));
    put_u64(out, ds.shape.size());
    for (auto d : ds.shape) put_u64(out, static_cast<std::uint64_t>(d));
    put_u64(out, ds.raw.size());
    // iostream byte I/O; char* may alias anything.
    out.write(reinterpret_cast<const char*>(ds.raw.data()),
              static_cast<std::streamsize>(ds.raw.size()));
    put_u32(out, crcs[i++]);
  }
  put_u64(out, attrs_.size());
  for (const auto& [path, kv] : attrs_) {
    put_str(out, path);
    put_u64(out, kv.size());
    for (const auto& [k, v] : kv) {
      put_str(out, k);
      put_str(out, v);
    }
  }
  if (!out) throw IoError("fio: write failure on " + filename);
}

File File::load(const std::string& filename) {
  std::ifstream in(filename, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("fio: cannot open " + filename);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (get_u64(in) != kMagic)
    throw IoError("fio: bad magic in " + filename);

  // Every dataset is read before any is verified, so the CRCs run in one
  // launch; the first mismatch in file order is the one reported.
  struct Stored {
    std::string path;
    Dataset ds;
    std::uint32_t crc = 0;
  };
  std::vector<Stored> stored;
  const auto n_ds = get_u64(in);
  for (std::uint64_t i = 0; i < n_ds; ++i) {
    Stored s;
    s.path = get_str(in);
    s.ds.dtype = static_cast<DType>(get_u32(in));
    const auto rank = get_u64(in);
    if (rank > 16) throw IoError("fio: implausible rank");
    for (std::uint64_t r = 0; r < rank; ++r)
      s.ds.shape.push_back(static_cast<std::int64_t>(get_u64(in)));
    const auto bytes = get_u64(in);
    // The stored count sizes the buffer only once the file can hold it.
    if (bytes > file_size - static_cast<std::uint64_t>(in.tellg()))
      throw IoError("fio: truncated dataset " + s.path);
    s.ds.raw.resize(bytes);
    // iostream byte I/O; char* may alias anything.
    in.read(reinterpret_cast<char*>(s.ds.raw.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) throw IoError("fio: truncated dataset " + s.path);
    s.crc = get_u32(in);
    stored.push_back(std::move(s));
  }
  std::vector<const Dataset*> order;
  order.reserve(stored.size());
  for (const Stored& s : stored) order.push_back(&s.ds);
  const std::vector<std::uint32_t> crcs = dataset_crcs(order);

  File f;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (crcs[i] != stored[i].crc)
      throw IoError("fio: checksum mismatch in " + stored[i].path);
    f.datasets_[stored[i].path] = std::move(stored[i].ds);
  }
  const auto n_attr = get_u64(in);
  for (std::uint64_t i = 0; i < n_attr; ++i) {
    const std::string path = get_str(in);
    const auto n_kv = get_u64(in);
    for (std::uint64_t k = 0; k < n_kv; ++k) {
      const std::string key = get_str(in);
      f.attrs_[path][key] = get_str(in);
    }
  }
  return f;
}

}  // namespace femto::fio
