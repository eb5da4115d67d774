#pragma once
// femtolint source model: everything the rules need, extracted once per
// file from the token stream.
//
//   Source        tokens + comments + suppression queries (allow /
//                 allow-file)
//   FunctionInfo  every named function/method definition: body token
//                 range, callee names, whether it launches a parallel
//                 kernel, whether it charges flops::add_bytes, its direct
//                 nondeterminism sources
//   ClassInfo     every class/struct with its data members, which mutexes
//                 it owns, and FEMTO_GUARDED_BY annotations
//   Program       the whole scanned set plus the one name-based CallGraph
//                 the whole-program passes (kernel-traffic, nondet-in-kernel,
//                 the lockset pass) share
//
// Extraction is a single forward walk with a scope stack -- no
// backtracking heuristics over raw text.  It is still not a compiler: no
// overload resolution (the call graph is name-based) and no preprocessing
// (femtolint lints what was written).  DESIGN.md §8 lists the limits.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace femtolint {

/// One direct nondeterminism source in a function body: a clock read, env
/// read, thread id, random_device, std::rand / srand, or pointer hashing.
struct NondetUse {
  int line = 0;
  std::string what;  // e.g. "std::chrono::steady_clock::now()"
};

/// One named function (or method) definition.
struct FunctionInfo {
  std::string name;        // last identifier before the parameter list
  std::string class_name;  // enclosing class or `X::` qualifier; "" if free
  std::size_t body_begin = 0;  // token index of '{'
  std::size_t body_end = 0;    // token index of matching '}'
  bool is_ctor_or_dtor = false;
  std::set<std::string> callees;  // identifiers called as `name(...)`, plus
                                  // T for make_unique<T>( / make_shared<T>(
  bool launches = false;          // calls parallel_for* / parallel_reduce*
  int first_launch_line = 0;
  std::string first_launch_name;
  bool charges = false;  // body contains flops::add_bytes
  int first_charge_line = 0;
  // Parameter names whose declared type names a compressed gauge container
  // (CompressedGaugeField): their traffic charge must come from the
  // container's own bytes(), not from a full-18 field's (kernel-traffic).
  std::set<std::string> compressed_params;
  // Identifiers X charged as `X.bytes(...)` / `X->bytes(...)` inside a
  // flops::add_bytes argument list anywhere in the body.
  std::set<std::string> charge_bytes_of;
  std::vector<NondetUse> nondet_sources;
  bool nondet_ok = false;  // body carries FEMTO_NONDET_OK(reason)
};

/// One mutable data member of a class (const, atomic and synchronisation
/// members are not recorded).
struct MemberInfo {
  std::string name;
  int line = 0;
  std::string guard;  // mutex named in FEMTO_GUARDED_BY; "" if none
};

struct ClassInfo {
  std::string name;
  std::vector<std::string> mutexes;  // names of std::mutex members
  std::vector<MemberInfo> members;
};

/// One `// femtolint: allow(...)` / `allow-file(...)` comment directive.
/// `used` is flipped by Source::suppressed() when the directive actually
/// suppresses a finding; the unused-suppression pass reports the rest.
struct AllowDirective {
  int line = 0;      // first line of the carrying comment
  int end_line = 0;  // last line of the carrying comment
  std::string rule;
  bool file_scope = false;
  mutable bool used = false;
};

struct Source {
  std::string path;  // as passed on the command line
  std::string rel;   // path relative to the src/ root ("" if not under one)
  LexResult lx;
  std::vector<FunctionInfo> functions;
  std::vector<ClassInfo> classes;
  std::vector<AllowDirective> allow_directives;
  // Names declared with std::future / std::shared_future: `f.get()` on one
  // of these blocks the caller, which the blocking-call-under-lock pass
  // needs to tell apart from the ubiquitous smart-pointer `.get()`.
  std::set<std::string> future_names;

  bool in_parallel_engine() const;

  /// `// femtolint: allow(<rule>): reason` on the finding's line or the
  /// three lines above it, or `// femtolint: allow-file(<rule>): reason`
  /// anywhere in the file.  Marks every matching directive used.
  bool suppressed(const std::string& rule, int line) const;

  /// Rules named by `// femtolint-expect:` directives (self-test mode).
  std::set<std::string> expected_rules() const;
};

/// True for the femtopar launch primitives (parallel_for,
/// parallel_for_chunked, parallel_reduce, parallel_reduce2,
/// parallel_reduce_n).
bool is_launch_name(const std::string& s);

/// Method names that alias std container / atomic / smart-pointer
/// vocabulary (`load`, `get`, `size`, ...).  The name-based graph cannot
/// tell `v_.load()` from `Autotuner::load()`, and one such mistaken edge
/// fabricates a deadlock cycle or a kernel context, so calls of these
/// names never become call-graph edges.
bool is_ubiquitous_name(const std::string& s);

/// Parse one file's text into the full model.
Source parse_source(std::string path, const std::string& text);

/// Load from disk + parse.
Source load_source(const std::string& path);

/// The name-based call graph over every function definition in a Program:
/// an edge v -> j for each callee name of v that names j (j != v), minus
/// the ubiquitous names.  Built once; every whole-program pass reads it.
struct CallGraph {
  struct Node {
    const Source* src = nullptr;
    const FunctionInfo* fn = nullptr;
    std::vector<std::size_t> callees;
    std::vector<std::size_t> callers;
  };
  std::vector<Node> nodes;
  std::map<std::string, std::vector<std::size_t>> by_name;

  /// Definitions named @p name (empty when none).
  const std::vector<std::size_t>& named(const std::string& name) const;
  /// `Class::name`, or the bare name of a free function.
  std::string display(std::size_t v) const;
};

struct Program {
  std::vector<Source> sources;
  CallGraph graph;  // filled by link(); points into `sources`
};

/// Build prog.graph from prog.sources.  Call once the sources are final:
/// the graph holds pointers into them.
void link(Program& prog);

}  // namespace femtolint
