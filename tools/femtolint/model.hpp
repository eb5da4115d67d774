#pragma once
// femtolint v2 source model: everything the rules need, extracted once per
// file from the token stream.
//
//   Source        tokens + comments + suppression queries (allow /
//                 allow-file) + the #include list + module assignment
//   FunctionInfo  every named function/method definition: body token
//                 range, callee names, whether it launches a parallel
//                 kernel, whether it charges flops::add_bytes
//   ClassInfo     every class/struct with its data members, which mutexes
//                 it owns, and FEMTO_GUARDED_BY annotations
//   Program       the whole scanned set; the unit the cross-file passes
//                 (layering, transitive kernel-traffic, lock discipline)
//                 run over
//
// Extraction is a single forward walk with a scope stack -- no
// backtracking heuristics over raw text.  It is still not a compiler: no
// overload resolution (the call graph is name-based) and no preprocessing
// (femtolint lints what was written).  Those limits are documented in
// DESIGN.md §9.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace femtolint {

struct IncludeEdge {
  std::string path;  // as written inside the quotes
  int line = 0;
  bool system = false;  // <...> include
};

/// One direct nondeterminism source in a function body (effect
/// `nondet_source`): a clock read, env read, thread id, random_device, or
/// pointer hashing.
struct NondetUse {
  int line = 0;
  std::string what;  // e.g. "std::chrono::steady_clock::now()"
};

/// One range-based for statement in a function body; the identifiers of
/// the range expression let the unordered-iteration-emit rule match them
/// against unordered-container declarations program-wide, and the loop
/// body's direct writes / callees tell it whether the iteration feeds
/// output (directly or through a transitively-emitting helper).
struct RangeFor {
  int line = 0;
  std::set<std::string> range_idents;
  bool body_emits = false;  // stream/FILE write lexically inside the body
  std::set<std::string> body_callees;
};

/// One call expression inside a function body, in lexical order.  The
/// token index lets the interprocedural concurrency passes (DESIGN.md §14)
/// interleave call sites with the lock acquisitions/releases the lockset
/// walk derives from the same token stream.
struct CallSite {
  std::string name;
  int line = 0;
  std::size_t tok = 0;  // token index of the callee identifier
};

/// One named function (or method) definition.
struct FunctionInfo {
  std::string name;        // last identifier before the parameter list
  std::string class_name;  // enclosing class or `X::` qualifier; "" if free
  int line = 0;            // line of the opening brace
  std::size_t body_begin = 0;  // token index of '{'
  std::size_t body_end = 0;    // token index of matching '}'
  bool is_ctor_or_dtor = false;
  std::set<std::string> callees;  // identifiers called as `name(...)`
  std::vector<CallSite> call_sites;  // the same, with position + order
  // Types constructed via make_unique<T>( / make_shared<T>( — the ctor
  // call the name-based graph would otherwise miss.  Kept separate from
  // `callees` so the v2/v3 passes keep their historical graph; the
  // concurrency passes union both.
  std::set<std::string> ctor_callees;
  bool launches = false;          // calls parallel_for / parallel_reduce*
  int first_launch_line = 0;
  std::string first_launch_name;
  bool charges = false;  // body contains flops::add_bytes
  int first_charge_line = 0;
  // Parameter names whose declared type names a compressed gauge container
  // (CompressedGaugeField): their
  // traffic charge must come from the container's own bytes(), not from a
  // full-18 field's (kernel-traffic pass).
  std::set<std::string> compressed_params;
  // Identifiers X charged as `X.bytes(...)` / `X->bytes(...)` inside a
  // flops::add_bytes argument list anywhere in the body.
  std::set<std::string> charge_bytes_of;

  // Direct effects for the determinism analysis (DESIGN.md §13); the
  // transitive closures are computed per Program by run_effect_rules.
  std::vector<NondetUse> nondet_sources;  // effect nondet_source
  bool nondet_ok = false;   // body carries FEMTO_NONDET_OK(reason)
  bool blocking_ok = false;  // body carries FEMTO_BLOCKING_OK(reason)
  bool protocol_ok = false;  // body carries FEMTO_PROTOCOL_OK(reason)
  bool emits = false;       // effect emits_output: writes a stream/FILE
  int first_emit_line = 0;
  std::string first_emit_what;
  bool fp_accumulates = false;  // ordered FP accumulation (reduce family /
                                // simd::sum_ordered)
  std::vector<RangeFor> range_fors;  // effect unordered_iteration feed
};

/// One data member of a class.
struct MemberInfo {
  std::string name;
  int line = 0;
  std::string guard;     // mutex named in FEMTO_GUARDED_BY; "" if none
  bool needs_guard = false;  // mutable state that the discipline applies to
};

struct ClassInfo {
  std::string name;
  int line = 0;
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
  std::string module_dir;       // first component of rel ("" if none)
  std::string module_override;  // `// femtolint-module: <m>` directive
  LexResult lx;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionInfo> functions;
  std::vector<ClassInfo> classes;
  std::vector<AllowDirective> allow_directives;
  // Names declared (anywhere in this file) with an unordered_* container
  // type, including one alias hop (`using Cache = std::unordered_map<...>`
  // makes both `Cache` and variables declared as `Cache` unordered).
  std::set<std::string> unordered_names;
  // Names declared with std::future / std::shared_future (same one-hop
  // alias mechanism): `f.get()` on one of these blocks the caller, which
  // the blocking-call-under-lock pass needs to tell apart from the
  // ubiquitous smart-pointer `.get()`.
  std::set<std::string> future_names;

  bool is_header() const;
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

/// Parse one file's text into the full model.
Source parse_source(std::string path, const std::string& text);

/// Load from disk + parse.
Source load_source(const std::string& path);

struct Program {
  std::vector<Source> sources;
};

}  // namespace femtolint
