// femtoqcd: an input-file-driven campaign executable, in the spirit of the
// Chroma/lalibe production binaries the paper's workflow is built from.
//
//   femtoqcd run <input-file> [archive]  generate ensemble + measure +
//                                        archive (to [archive] if given,
//                                        else to the input's `archive`)
//   femtoqcd analyze <archive> <ens>     jackknife analysis of an archive
//   femtoqcd info <archive>              list archive contents
//
// Input file (key = value, # comments):
//
//   name          = demo
//   lattice       = 4 4 4 8
//   beta          = 6.0
//   l5            = 4
//   m5            = -1.8
//   b5            = 1.5
//   c5            = 0.5
//   mf            = 0.3
//   configs       = 3
//   thermalization = 8
//   decorrelation = 3
//   tol           = 1e-7
//   seed          = 2018
//   archive       = /tmp/demo.femto

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/ensemble.hpp"

namespace {

struct Input {
  femto::core::EnsembleSpec spec;
  double tol = 1e-7;
  std::string archive = "campaign.femto";
};

Input parse_input(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open input file: " + path);
  Input inp;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream is(line);
    std::string key, eq;
    if (!(is >> key)) continue;
    if (!(is >> eq) || eq != "=")
      throw std::runtime_error("input line " + std::to_string(line_no) +
                               ": expected 'key = value'");
    if (key == "name") {
      is >> inp.spec.name;
    } else if (key == "lattice") {
      for (auto& e : inp.spec.extents) is >> e;
    } else if (key == "beta") {
      is >> inp.spec.beta;
    } else if (key == "l5") {
      is >> inp.spec.mobius.l5;
    } else if (key == "m5") {
      is >> inp.spec.mobius.m5;
    } else if (key == "b5") {
      is >> inp.spec.mobius.b5;
    } else if (key == "c5") {
      is >> inp.spec.mobius.c5;
    } else if (key == "mf") {
      is >> inp.spec.mobius.mf;
    } else if (key == "configs") {
      is >> inp.spec.n_configs;
    } else if (key == "thermalization") {
      is >> inp.spec.thermalization;
    } else if (key == "decorrelation") {
      is >> inp.spec.decorrelation;
    } else if (key == "tol") {
      is >> inp.tol;
    } else if (key == "seed") {
      is >> inp.spec.seed;
    } else if (key == "archive") {
      is >> inp.archive;
    } else {
      throw std::runtime_error("input line " + std::to_string(line_no) +
                               ": unknown key '" + key + "'");
    }
    if (is.fail())
      throw std::runtime_error("input line " + std::to_string(line_no) +
                               ": bad value for '" + key + "'");
  }
  return inp;
}

void print_result(const femto::core::EnsembleResult& res) {
  std::printf("ensemble %s: %d configurations, plaquette %.4f +- %.4f%s\n",
              res.name.c_str(), res.n_configs, res.plaquette_mean,
              res.plaquette_err,
              res.all_converged ? "" : "  [UNCONVERGED SOLVES]");
  std::printf("\nnucleon effective mass (jackknife):\n%4s %12s %12s\n",
              "t", "m_eff", "err");
  for (std::size_t t = 0; t < res.meff_mean.size(); ++t)
    std::printf("%4zu %12.5f %12.5f\n", t, res.meff_mean[t],
                res.meff_err[t]);
  std::printf("\nFH effective coupling series (config averages):\n");
  for (std::size_t t = 0; t < res.geff.front().size(); ++t) {
    double mean = 0;
    for (const auto& cfg : res.geff) mean += cfg[t];
    std::printf("%4zu %12.5f\n", t, mean / res.geff.size());
  }
}

int cmd_run(const std::string& input_path, const char* archive_path) {
  Input inp = parse_input(input_path);
  if (archive_path) inp.archive = archive_path;
  std::printf("running campaign '%s' on %dx%dx%dx%d, beta=%.2f, %d "
              "configs...\n",
              inp.spec.name.c_str(), inp.spec.extents[0],
              inp.spec.extents[1], inp.spec.extents[2], inp.spec.extents[3],
              inp.spec.beta, inp.spec.n_configs);
  femto::SolverParams sp;
  sp.tol = inp.tol;
  sp.max_iter = 20000;
  femto::fio::File archive;
  const auto res = femto::core::run_ensemble(inp.spec, sp, &archive);
  archive.save(inp.archive);
  print_result(res);
  std::printf("\narchive written to %s\n", inp.archive.c_str());
  return res.all_converged ? 0 : 1;
}

int cmd_analyze(const std::string& archive_path, const std::string& name) {
  const auto archive = femto::fio::File::load(archive_path);
  const auto res = femto::core::load_ensemble(archive, name);
  print_result(res);
  return 0;
}

int cmd_info(const std::string& archive_path) {
  const auto archive = femto::fio::File::load(archive_path);
  std::printf("%zu datasets:\n", archive.n_datasets());
  for (const auto& path : archive.list()) {
    const auto& ds = archive.dataset(path);
    std::printf("  %-40s %s[%lld]\n", path.c_str(),
                femto::fio::to_string(ds.dtype),
                static_cast<long long>(ds.elements()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::string(argv[1]) == "run")
      return cmd_run(argv[2], argc >= 4 ? argv[3] : nullptr);
    if (argc >= 4 && std::string(argv[1]) == "analyze")
      return cmd_analyze(argv[2], argv[3]);
    if (argc >= 3 && std::string(argv[1]) == "info")
      return cmd_info(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "femtoqcd: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage:\n  femtoqcd run <input> [archive]\n  femtoqcd analyze "
               "<archive> <ensemble>\n  femtoqcd info <archive>\n");
  return 2;
}
