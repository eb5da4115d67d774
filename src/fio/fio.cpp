#include "fio/fio.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>

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

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const auto table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

template <typename T>
void File::write_typed(const std::string& path, DType dtype,
                       const std::vector<T>& data,
                       std::vector<std::int64_t> shape) {
  Dataset ds;
  ds.dtype = dtype;
  ds.shape = shape.empty()
                 ? std::vector<std::int64_t>{
                       static_cast<std::int64_t>(data.size())}
                 : std::move(shape);
  std::int64_t n = 1;
  for (auto d : ds.shape) n *= d;
  if (n != static_cast<std::int64_t>(data.size()))
    throw IoError("fio: shape does not match data size for " + path);
  ds.raw.resize(data.size() * sizeof(T));
  std::memcpy(ds.raw.data(), data.data(), ds.raw.size());
  datasets_[path] = std::move(ds);
}

void File::write_f64(const std::string& path, const std::vector<double>& d,
                     std::vector<std::int64_t> shape) {
  write_typed(path, DType::F64, d, std::move(shape));
}
void File::write_f32(const std::string& path, const std::vector<float>& d,
                     std::vector<std::int64_t> shape) {
  write_typed(path, DType::F32, d, std::move(shape));
}
void File::write_i64(const std::string& path,
                     const std::vector<std::int64_t>& d,
                     std::vector<std::int64_t> shape) {
  write_typed(path, DType::I64, d, std::move(shape));
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
std::vector<T> File::read_typed(const std::string& path, DType dtype) const {
  const Dataset& ds = dataset(path);
  if (ds.dtype != dtype)
    throw IoError("fio: dtype mismatch reading " + path + " (stored " +
                  to_string(ds.dtype) + ", requested " + to_string(dtype) +
                  ")");
  std::vector<T> out(ds.raw.size() / sizeof(T));
  std::memcpy(out.data(), ds.raw.data(), ds.raw.size());
  return out;
}

std::vector<double> File::read_f64(const std::string& path) const {
  return read_typed<double>(path, DType::F64);
}
std::vector<float> File::read_f32(const std::string& path) const {
  return read_typed<float>(path, DType::F32);
}
std::vector<std::int64_t> File::read_i64(const std::string& path) const {
  return read_typed<std::int64_t>(path, DType::I64);
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

}  // namespace

void File::save(const std::string& filename) const {
  std::ofstream out(filename, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("fio: cannot open " + filename + " for writing");
  put_u64(out, kMagic);
  put_u64(out, datasets_.size());
  for (const auto& [path, ds] : datasets_) {
    put_str(out, path);
    put_u32(out, static_cast<std::uint32_t>(ds.dtype));
    put_u64(out, ds.shape.size());
    for (auto d : ds.shape) put_u64(out, static_cast<std::uint64_t>(d));
    put_u64(out, ds.raw.size());
    // iostream byte I/O; char* may alias anything.
    out.write(reinterpret_cast<const char*>(ds.raw.data()),
              static_cast<std::streamsize>(ds.raw.size()));
    put_u32(out, crc32(ds.raw.data(), ds.raw.size()));
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
  std::ifstream in(filename, std::ios::binary);
  if (!in) throw IoError("fio: cannot open " + filename);
  if (get_u64(in) != kMagic)
    throw IoError("fio: bad magic in " + filename);
  File f;
  const auto n_ds = get_u64(in);
  for (std::uint64_t i = 0; i < n_ds; ++i) {
    const std::string path = get_str(in);
    Dataset ds;
    ds.dtype = static_cast<DType>(get_u32(in));
    const auto rank = get_u64(in);
    if (rank > 16) throw IoError("fio: implausible rank");
    for (std::uint64_t r = 0; r < rank; ++r)
      ds.shape.push_back(static_cast<std::int64_t>(get_u64(in)));
    const auto bytes = get_u64(in);
    ds.raw.resize(bytes);
    // iostream byte I/O; char* may alias anything.
    in.read(reinterpret_cast<char*>(ds.raw.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) throw IoError("fio: truncated dataset " + path);
    const auto stored_crc = get_u32(in);
    if (crc32(ds.raw.data(), ds.raw.size()) != stored_crc)
      throw IoError("fio: checksum mismatch in " + path);
    f.datasets_[path] = std::move(ds);
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
