//===- support/Json.h - Dependency-free JSON reader/writer -----*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON value type with a writer and an Expected<T>-based parser,
/// used by the model-artifact layer to persist trained models. Three
/// properties matter more than generality:
///
///  - **Exact double round-trip.** Numbers are emitted in printf's %.17g
///    format (std::to_chars), which the parser's correctly rounded
///    std::from_chars reads back to the identical bit pattern, so a
///    saved model predicts bit-identically to the in-memory one.
///  - **Strict numbers.** The parser accepts only the RFC 8259 number
///    grammar: no leading '+', no bare or trailing '.', no leading zeros.
///  - **Deterministic output.** Objects preserve insertion order, so the
///    same value always serializes to the same bytes (stable diffs,
///    cacheable artifacts).
///
/// Parse failures are reported through Expected<Json> with a line/column
/// diagnostic -- no exceptions, matching the library-wide error contract.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_SUPPORT_JSON_H
#define OPPROX_SUPPORT_JSON_H

#include "support/Error.h"
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace opprox {

/// One JSON value: null, bool, number, string, array, or object.
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : K(Kind::Null) {}
  /*implicit*/ Json(bool B) : K(Kind::Bool), BoolValue(B) {}
  /*implicit*/ Json(double N) : K(Kind::Number), NumberValue(N) {}
  /*implicit*/ Json(int N) : Json(static_cast<double>(N)) {}
  /*implicit*/ Json(long N) : Json(static_cast<double>(N)) {}
  /*implicit*/ Json(size_t N) : Json(static_cast<double>(N)) {}
  /*implicit*/ Json(std::string S) : K(Kind::String), Str(std::move(S)) {}
  /*implicit*/ Json(const char *S) : K(Kind::String), Str(S) {}

  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }

  /// An array of numbers from any numeric range.
  template <typename T> static Json numberArray(const std::vector<T> &Values) {
    Json J = array();
    for (const T &V : Values)
      J.push(static_cast<double>(V));
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const {
    assert(isBool() && "not a bool");
    return BoolValue;
  }
  double asNumber() const {
    assert(isNumber() && "not a number");
    return NumberValue;
  }
  const std::string &asString() const {
    assert(isString() && "not a string");
    return Str;
  }

  // -- Array access ------------------------------------------------------

  size_t size() const { return isObject() ? Members.size() : Elements.size(); }

  const Json &at(size_t I) const {
    assert(isArray() && I < Elements.size() && "bad array access");
    return Elements[I];
  }

  /// Appends to an array.
  void push(Json Value) {
    assert(isArray() && "push on non-array");
    Elements.push_back(std::move(Value));
  }

  // -- Object access -----------------------------------------------------

  /// Member value, or null when absent. Linear scan: artifact objects are
  /// small and insertion-ordered.
  const Json *find(const std::string &Key) const;

  /// Sets (or replaces) an object member, preserving insertion order.
  void set(const std::string &Key, Json Value);

  const std::vector<std::pair<std::string, Json>> &members() const {
    assert(isObject() && "members of non-object");
    return Members;
  }

  // -- Serialization -----------------------------------------------------

  /// Renders the value. \p Indent > 0 pretty-prints with that many spaces
  /// per nesting level; 0 emits the compact single-line form.
  std::string dump(int Indent = 0) const;

  /// Parses one JSON document (trailing non-whitespace is an error).
  /// Errors carry a "line L, column C" location.
  static Expected<Json> parse(const std::string &Text);

private:
  void dumpTo(std::string &Out, int Indent, int Depth) const;

  Kind K;
  bool BoolValue = false;
  double NumberValue = 0.0;
  std::string Str;
  std::vector<Json> Elements;
  std::vector<std::pair<std::string, Json>> Members;
};

//===----------------------------------------------------------------------===//
// Typed field extraction
//===----------------------------------------------------------------------===//
//
// fromJson() implementations read fields through these helpers so every
// missing or mistyped field produces a uniform, descriptive Error instead
// of an assert or a crash.

/// The \p Key member of \p Obj, required to exist.
Expected<const Json *> getMember(const Json &Obj, const std::string &Key);

Expected<double> getNumber(const Json &Obj, const std::string &Key);
Expected<bool> getBool(const Json &Obj, const std::string &Key);
Expected<std::string> getString(const Json &Obj, const std::string &Key);

/// A non-negative integer-valued number field (sizes, counts, indices).
Expected<size_t> getSize(const Json &Obj, const std::string &Key);

/// An integer-valued number field that may be negative.
Expected<long> getInt(const Json &Obj, const std::string &Key);

/// The \p Key member, required to be an array / object.
Expected<const Json *> getArray(const Json &Obj, const std::string &Key);
Expected<const Json *> getObject(const Json &Obj, const std::string &Key);

/// Array-of-numbers fields.
Expected<std::vector<double>> getNumberVector(const Json &Obj,
                                              const std::string &Key);
Expected<std::vector<int>> getIntVector(const Json &Obj,
                                        const std::string &Key);
Expected<std::vector<size_t>> getSizeVector(const Json &Obj,
                                            const std::string &Key);

/// Reads a whole file; fails with a descriptive Error on I/O problems.
Expected<std::string> readFile(const std::string &Path);

/// Writes \p Contents to \p Path atomically enough for our purposes
/// (write + close, no temp-rename dance); nullopt on success.
std::optional<Error> writeFile(const std::string &Path,
                               const std::string &Contents);

} // namespace opprox

#endif // OPPROX_SUPPORT_JSON_H
