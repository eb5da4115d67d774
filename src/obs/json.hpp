#pragma once
// Minimal JSON utilities for the femtoscope observability layer: string
// escaping and number formatting for the writers (trace export, run
// report), the one file writer every export uses, plus a strict
// recursive-descent validator used by tests and the trace-export smoke
// binary.  This is NOT a general JSON parser --
// validate() answers "is this byte string well-formed JSON?" and nothing
// else, which is exactly what schema smoke tests need.

#include <cstdint>
#include <string>

namespace femto::obs {

// Escape a raw byte string for inclusion inside a JSON string literal
// (quotes are NOT added).  Control characters are \u00XX-escaped.
std::string json_escape(const std::string& raw);

// Format a double as a JSON number.  Non-finite values (NaN/inf) have no
// JSON representation; they are emitted as `null` so a report containing
// a degenerate measurement still parses.
std::string json_number(double v);

// Format an integer as a JSON number.
std::string json_number(std::int64_t v);

// Write @p body to @p path, replacing the file; false on any I/O failure.
// Takes no lock, so the crash flight recorder can call it from a dying
// thread.
bool write_file(const std::string& path, const std::string& body);

// Strict well-formedness check over the complete input (trailing garbage
// rejected; duplicate keys within one object rejected -- a femtoscope
// writer emitting a key twice is an upstream bug, not a parse choice).
// On failure, *err (if non-null) gets a one-line diagnostic with the
// byte offset.
bool json_validate(const std::string& text, std::string* err = nullptr);

}  // namespace femto::obs
