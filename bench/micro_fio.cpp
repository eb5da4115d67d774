// Microbenchmark: propagator I/O (src/fio, DESIGN.md §18).
//
// Two studies:
//
//  * crc -- the GATED study: fio::crc32, the slicing-by-8 kernel, against
//    the byte-at-a-time loop it replaced (kept below as the reference,
//    as tests/fio/test_fio.cpp keeps it), both serial on one 12^3x24
//    column (7.96 MB), round-robin.  The claim: the kernel runs at
//    >= kCrcGate times the reference.  GB/s is the buffer's bytes over
//    time.
//
//  * save/load -- INFO-ONLY: the workflow's propagator write and load of
//    12 columns of 12^3x24 (95.6 MB), as femtobench's contract_io_12x24
//    round does them: write_propagator x 12 + File::save, and File::load
//    + read_propagator x 12, through a file in the system temp directory.
//    MB/s is the file's size over time.  Both CRC passes run on the
//    thread pool, so these rows move with FEMTO_THREADS.
//
// Results land in BENCH_fio.json, gated by benchdiff.

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fio/propagator_io.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"

namespace {

constexpr int kColumns = 12;
constexpr int kCrcInner = 2;  // CRC passes per timed sample
constexpr int kCrcReps = 7;   // timed samples; min is reported
constexpr int kIoReps = 5;
constexpr int kWarm = 1;  // untimed call: faults the pages
// The kernel reads x5.1-x5.5 over the reference on a 4-vCPU sse2 box;
// the gate sits well below that.
constexpr double kCrcGate = 2.0;

// The byte-at-a-time CRC-32 that fio::crc32 replaced.
std::uint32_t crc32_bytewise(const void* data, std::size_t n) {
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
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i)
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// Returns the kernel's speedup over the reference.
double crc_study(const femto::SpinorField<double>& column,
                 femto::bench::Report& rep) {
  const auto bytes = static_cast<std::size_t>(column.bytes());
  std::uint32_t kernel = 0, reference = 0;
  const std::vector<double> seconds = femto::bench::min_seconds(
      {[&] { kernel = femto::fio::crc32(column.data(), bytes); },
       [&] { reference = crc32_bytewise(column.data(), bytes); }},
      kCrcInner, kCrcReps, kWarm);
  if (kernel != reference) {
    std::fprintf(stderr, "crc32 %08x != reference %08x\n", kernel,
                 reference);
    return 0.0;
  }
  const double gbps = static_cast<double>(bytes) / seconds[0] / 1e9;
  const double ref_gbps = static_cast<double>(bytes) / seconds[1] / 1e9;
  rep.set("crc32.gbps", gbps);
  rep.set("crc32_bytewise.gbps", ref_gbps);
  rep.set("crc32.speedup", seconds[1] / seconds[0]);
  std::printf("crc32 over %.2f MB: slicing-by-8 %.2f GB/s, byte-wise %.2f "
              "GB/s (x%.2f)\n",
              static_cast<double>(bytes) / 1e6, gbps, ref_gbps,
              seconds[1] / seconds[0]);
  return seconds[1] / seconds[0];
}

void save_load_study(const std::vector<femto::SpinorField<double>>& cols,
                     std::vector<femto::SpinorField<double>>& back,
                     femto::bench::Report& rep) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("micro_fio_" + std::to_string(::getpid()) + ".femto"))
          .string();
  const femto::fio::PropagatorMeta meta{.ensemble = "micro_fio", .l5 = 1};
  const std::vector<double> seconds = femto::bench::min_seconds(
      {[&] {
         femto::fio::File f;
         for (int k = 0; k < kColumns; ++k)
           femto::fio::write_propagator(f, "col" + std::to_string(k),
                                        cols[k], meta);
         f.save(path);
       },
       [&] {
         const auto f = femto::fio::File::load(path);
         for (int k = 0; k < kColumns; ++k)
           femto::fio::read_propagator(f, "col" + std::to_string(k),
                                       back[k]);
       }},
      1, kIoReps, kWarm);
  const double mb = static_cast<double>(std::filesystem::file_size(path)) /
                    1e6;
  std::filesystem::remove(path);
  rep.set("file_mb", mb);
  rep.set("save.mbps", mb / seconds[0]);
  rep.set("load.mbps", mb / seconds[1]);
  std::printf("%d columns, %.1f MB: save %.0f MB/s (%.3f s), load %.0f "
              "MB/s (%.3f s)\n",
              kColumns, mb, mb / seconds[0], seconds[0], mb / seconds[1],
              seconds[1]);
}

}  // namespace

int main() {
  std::printf("propagator I/O microbenchmark: %zu pool threads\n",
              femto::par::ThreadPool::global().size());
  femto::bench::Report rep;
  rep.set("threads",
          static_cast<double>(femto::par::ThreadPool::global().size()));

  auto geom = std::make_shared<femto::Geometry>(12, 12, 12, 24);
  std::vector<femto::SpinorField<double>> cols, back;
  for (int k = 0; k < kColumns; ++k) {
    cols.emplace_back(geom, 1, femto::Subset::Full);
    cols.back().gaussian(static_cast<std::uint64_t>(1000 + k));
    back.emplace_back(geom, 1, femto::Subset::Full);
  }

  const double speedup = crc_study(cols[0], rep);
  save_load_study(cols, back, rep);

  const bool ok = speedup >= kCrcGate;
  rep.set("crc_gate_ok", ok);
  std::printf("\ncrc32 speedup x%.2f (gate x%.1f) -> %s\n", speedup,
              kCrcGate, ok ? "OK" : "FAIL");
  return rep.write("BENCH_fio.json") ? 0 : 1;
}
