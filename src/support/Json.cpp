//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>

using namespace opprox;

/// Maximum object/array nesting the parser accepts. The parser recurses
/// per nesting level, so unbounded depth lets a hostile document (e.g.
/// a megabyte of '[') overflow the stack; artifacts nest a handful of
/// levels, so this bound is generous for every legitimate input while
/// keeping worst-case stack usage small and fixed.
static constexpr size_t kMaxParseDepth = 192;

//===----------------------------------------------------------------------===//
// Value access
//===----------------------------------------------------------------------===//

const Json *Json::find(const std::string &Key) const {
  assert(isObject() && "find on non-object");
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

void Json::set(const std::string &Key, Json Value) {
  assert(isObject() && "set on non-object");
  for (auto &[Name, Existing] : Members) {
    if (Name == Key) {
      Existing = std::move(Value);
      return;
    }
  }
  Members.emplace_back(Key, std::move(Value));
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

static void appendEscaped(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

static void appendNumber(std::string &Out, double N) {
  assert(std::isfinite(N) && "JSON cannot represent NaN or infinity");
  char Buf[32];
  std::to_chars_result R;
  if (std::fabs(N) < 1e15 && N == std::trunc(N) &&
      !(N == 0.0 && std::signbit(N)))
    // Integral values print without an exponent or trailing digits; this
    // covers counts, indices, and levels.
    R = std::to_chars(Buf, Buf + sizeof(Buf), static_cast<long long>(N));
  else
    // The general format at precision 17 is printf's %.17g, and 17
    // significant digits round-trip any finite double exactly.
    R = std::to_chars(Buf, Buf + sizeof(Buf), N, std::chars_format::general,
                      17);
  Out.append(Buf, R.ptr);
}

void Json::dumpTo(std::string &Out, int Indent, int Depth) const {
  auto Newline = [&](int D) {
    if (Indent <= 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Indent * D), ' ');
  };
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolValue ? "true" : "false";
    break;
  case Kind::Number:
    appendNumber(Out, NumberValue);
    break;
  case Kind::String:
    appendEscaped(Out, Str);
    break;
  case Kind::Array: {
    if (Elements.empty()) {
      Out += "[]";
      break;
    }
    // Arrays of scalars stay on one line even when pretty-printing;
    // coefficient vectors would otherwise dominate the file.
    bool AllScalar = true;
    for (const Json &E : Elements)
      AllScalar = AllScalar && !E.isArray() && !E.isObject();
    Out += '[';
    for (size_t I = 0; I < Elements.size(); ++I) {
      if (I)
        Out += AllScalar && Indent > 0 ? ", " : ",";
      if (!AllScalar)
        Newline(Depth + 1);
      Elements[I].dumpTo(Out, Indent, Depth + 1);
    }
    if (!AllScalar)
      Newline(Depth);
    Out += ']';
    break;
  }
  case Kind::Object: {
    if (Members.empty()) {
      Out += "{}";
      break;
    }
    Out += '{';
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out += ',';
      Newline(Depth + 1);
      appendEscaped(Out, Members[I].first);
      Out += Indent > 0 ? ": " : ":";
      Members[I].second.dumpTo(Out, Indent, Depth + 1);
    }
    Newline(Depth);
    Out += '}';
    break;
  }
  }
}

std::string Json::dump(int Indent) const {
  std::string Out;
  dumpTo(Out, Indent, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent JSON parser tracking line/column for diagnostics.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  Expected<Json> run() {
    Expected<Json> Value = parseValue();
    if (!Value)
      return Value;
    skipWhitespace();
    if (Pos != Text.size())
      return fail("trailing content after JSON document");
    return Value;
  }

private:
  Error fail(const std::string &Message) const {
    size_t Line = 1, Column = 1;
    for (size_t I = 0; I < Pos && I < Text.size(); ++I) {
      if (Text[I] == '\n') {
        ++Line;
        Column = 1;
      } else {
        ++Column;
      }
    }
    return Error(format("JSON parse error at line %zu, column %zu: %s",
                        Line, Column, Message.c_str()));
  }

  void skipWhitespace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  Expected<Json> parseValue() {
    skipWhitespace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return parseString();
    if (C == 't' || C == 'f')
      return parseKeyword();
    if (C == 'n') {
      if (Text.compare(Pos, 4, "null") == 0) {
        Pos += 4;
        return Json();
      }
      return fail("invalid keyword");
    }
    return parseNumber();
  }

  Expected<Json> parseKeyword() {
    if (Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      return Json(true);
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      return Json(false);
    }
    return fail("invalid keyword");
  }

  /// Scans one run of the characters [0-9] in the token \p T from \p I.
  static size_t digitsAt(std::string_view T, size_t I) {
    size_t Start = I;
    while (I < T.size() && T[I] >= '0' && T[I] <= '9')
      ++I;
    return I - Start;
  }

  /// Whether a number token that from_chars found out of range is too
  /// small rather than too large: its leading significant digit sits
  /// below the units place. \p T matches the RFC 8259 grammar.
  static bool underflows(std::string_view T) {
    size_t I = T[0] == '-' ? 1 : 0;
    size_t IntDigits = digitsAt(T, I);
    // Decimal exponent of the leading significant digit.
    long long Exponent = 0;
    if (T[I] != '0') {
      Exponent = static_cast<long long>(IntDigits) - 1;
    } else if (I + 1 < T.size() && T[I + 1] == '.') {
      size_t Zeros = 0;
      while (I + 2 + Zeros < T.size() && T[I + 2 + Zeros] == '0')
        ++Zeros;
      Exponent = -static_cast<long long>(Zeros) - 1;
    }
    size_t E = T.find_first_of("eE");
    if (E != std::string_view::npos) {
      size_t Digits = E + 1 + (T[E + 1] == '+' || T[E + 1] == '-');
      long long Explicit = 0;
      // An exponent too long for long long is huge either way.
      if (std::from_chars(T.data() + Digits, T.data() + T.size(), Explicit)
              .ec != std::errc())
        Explicit = std::numeric_limits<long long>::max() / 2;
      Exponent += T[E + 1] == '-' ? -Explicit : Explicit;
    }
    return Exponent < 0;
  }

  Expected<Json> parseNumber() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    std::string_view Token(Text.data() + Start, Pos - Start);
    auto Invalid = [&] {
      Pos = Start;
      return fail(format("invalid number '%.*s'",
                         static_cast<int>(Token.size()), Token.data()));
    };
    // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
    // A sign, a bare or trailing '.', and leading zeros are rejected.
    size_t I = Token[0] == '-' ? 1 : 0;
    size_t IntDigits = digitsAt(Token, I);
    if (IntDigits == 0 || (Token[I] == '0' && IntDigits > 1))
      return Invalid();
    I += IntDigits;
    if (I < Token.size() && Token[I] == '.') {
      size_t FracDigits = digitsAt(Token, I + 1);
      if (FracDigits == 0)
        return Invalid();
      I += 1 + FracDigits;
    }
    if (I < Token.size() && (Token[I] == 'e' || Token[I] == 'E')) {
      ++I;
      if (I < Token.size() && (Token[I] == '+' || Token[I] == '-'))
        ++I;
      size_t ExpDigits = digitsAt(Token, I);
      if (ExpDigits == 0)
        return Invalid();
      I += ExpDigits;
    }
    if (I != Token.size())
      return Invalid();

    double Value = 0.0;
    std::from_chars_result R =
        std::from_chars(Token.data(), Token.data() + Token.size(), Value);
    if (R.ec == std::errc::result_out_of_range && underflows(Token))
      // Too small for a double: reads as a signed zero, as strtod does.
      Value = Token[0] == '-' ? -0.0 : 0.0;
    else if (R.ec != std::errc() || R.ptr != Token.data() + Token.size())
      return Invalid();
    return Json(Value);
  }

  Expected<Json> parseString() {
    if (!consume('"'))
      return fail("expected '\"'");
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Json(std::move(Out));
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (static_cast<unsigned char>(C) >= 0x80) {
        // Structural UTF-8 validation: a valid leading byte followed by
        // the right number of continuation bytes. Catches truncated and
        // garbage byte sequences (binary data masquerading as JSON)
        // without decoding code points.
        unsigned char Lead = static_cast<unsigned char>(C);
        size_t Continuations;
        if (Lead >= 0xC2 && Lead <= 0xDF)
          Continuations = 1;
        else if (Lead >= 0xE0 && Lead <= 0xEF)
          Continuations = 2;
        else if (Lead >= 0xF0 && Lead <= 0xF4)
          Continuations = 3;
        else
          return fail("invalid UTF-8 byte in string");
        Out += C;
        for (size_t I = 0; I < Continuations; ++I) {
          if (Pos >= Text.size())
            return fail("truncated UTF-8 sequence in string");
          unsigned char Cont = static_cast<unsigned char>(Text[Pos]);
          if (Cont < 0x80 || Cont > 0xBF)
            return fail("invalid UTF-8 continuation byte in string");
          Out += Text[Pos++];
        }
        continue;
      }
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape sequence");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        // Encode as UTF-8. Surrogate pairs are not needed by artifacts;
        // lone surrogates encode as-is (WTF-8 style) rather than fail.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail(format("invalid escape '\\%c'", E));
      }
    }
  }

  Expected<Json> parseArray() {
    if (Depth >= kMaxParseDepth)
      return fail("nesting deeper than the supported maximum");
    ++Depth;
    Expected<Json> Out = parseArrayBody();
    --Depth;
    return Out;
  }

  Expected<Json> parseArrayBody() {
    consume('[');
    Json Out = Json::array();
    skipWhitespace();
    if (consume(']'))
      return Out;
    while (true) {
      Expected<Json> Element = parseValue();
      if (!Element)
        return Element;
      Out.push(std::move(*Element));
      skipWhitespace();
      if (consume(']'))
        return Out;
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  Expected<Json> parseObject() {
    if (Depth >= kMaxParseDepth)
      return fail("nesting deeper than the supported maximum");
    ++Depth;
    Expected<Json> Out = parseObjectBody();
    --Depth;
    return Out;
  }

  Expected<Json> parseObjectBody() {
    consume('{');
    Json Out = Json::object();
    skipWhitespace();
    if (consume('}'))
      return Out;
    while (true) {
      skipWhitespace();
      Expected<Json> Key = parseString();
      if (!Key)
        return fail("expected string key in object");
      skipWhitespace();
      if (!consume(':'))
        return fail("expected ':' after object key");
      Expected<Json> Value = parseValue();
      if (!Value)
        return Value;
      // Duplicate keys are always a producer bug in our documents
      // (set() would silently keep only the last value), so reject them
      // rather than guess which value was meant.
      if (Out.find(Key->asString()))
        return fail(format("duplicate object key '%s'",
                           Key->asString().c_str()));
      Out.set(Key->asString(), std::move(*Value));
      skipWhitespace();
      if (consume('}'))
        return Out;
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }

  const std::string &Text;
  size_t Pos = 0;
  size_t Depth = 0;
};

} // namespace

Expected<Json> Json::parse(const std::string &Text) {
  if (faultPoint(faults::JsonParse))
    return Error("fault injection: simulated JSON parse failure");
  return Parser(Text).run();
}

//===----------------------------------------------------------------------===//
// Typed field extraction
//===----------------------------------------------------------------------===//

Expected<const Json *> opprox::getMember(const Json &Obj,
                                         const std::string &Key) {
  if (!Obj.isObject())
    return Error(format("expected an object while reading field '%s'",
                        Key.c_str()));
  if (const Json *Member = Obj.find(Key))
    return Member;
  return Error(format("missing required field '%s'", Key.c_str()));
}

Expected<double> opprox::getNumber(const Json &Obj, const std::string &Key) {
  Expected<const Json *> Member = getMember(Obj, Key);
  if (!Member)
    return Member.error();
  if (!(*Member)->isNumber())
    return Error(format("field '%s' must be a number", Key.c_str()));
  return (*Member)->asNumber();
}

Expected<bool> opprox::getBool(const Json &Obj, const std::string &Key) {
  Expected<const Json *> Member = getMember(Obj, Key);
  if (!Member)
    return Member.error();
  if (!(*Member)->isBool())
    return Error(format("field '%s' must be a bool", Key.c_str()));
  return (*Member)->asBool();
}

Expected<std::string> opprox::getString(const Json &Obj,
                                        const std::string &Key) {
  Expected<const Json *> Member = getMember(Obj, Key);
  if (!Member)
    return Member.error();
  if (!(*Member)->isString())
    return Error(format("field '%s' must be a string", Key.c_str()));
  return (*Member)->asString();
}

Expected<size_t> opprox::getSize(const Json &Obj, const std::string &Key) {
  Expected<double> Value = getNumber(Obj, Key);
  if (!Value)
    return Value.error();
  if (*Value < 0 || *Value != std::floor(*Value))
    return Error(format("field '%s' must be a non-negative integer",
                        Key.c_str()));
  return static_cast<size_t>(*Value);
}

Expected<long> opprox::getInt(const Json &Obj, const std::string &Key) {
  Expected<double> Value = getNumber(Obj, Key);
  if (!Value)
    return Value.error();
  if (*Value != std::floor(*Value))
    return Error(format("field '%s' must be an integer", Key.c_str()));
  return static_cast<long>(*Value);
}

Expected<const Json *> opprox::getArray(const Json &Obj,
                                        const std::string &Key) {
  Expected<const Json *> Member = getMember(Obj, Key);
  if (!Member)
    return Member.error();
  if (!(*Member)->isArray())
    return Error(format("field '%s' must be an array", Key.c_str()));
  return *Member;
}

Expected<const Json *> opprox::getObject(const Json &Obj,
                                         const std::string &Key) {
  Expected<const Json *> Member = getMember(Obj, Key);
  if (!Member)
    return Member.error();
  if (!(*Member)->isObject())
    return Error(format("field '%s' must be an object", Key.c_str()));
  return *Member;
}

Expected<std::vector<double>> opprox::getNumberVector(const Json &Obj,
                                                      const std::string &Key) {
  Expected<const Json *> Arr = getArray(Obj, Key);
  if (!Arr)
    return Arr.error();
  std::vector<double> Out;
  Out.reserve((*Arr)->size());
  for (size_t I = 0; I < (*Arr)->size(); ++I) {
    const Json &E = (*Arr)->at(I);
    if (!E.isNumber())
      return Error(format("field '%s' element %zu must be a number",
                          Key.c_str(), I));
    Out.push_back(E.asNumber());
  }
  return Out;
}

Expected<std::vector<int>> opprox::getIntVector(const Json &Obj,
                                                const std::string &Key) {
  Expected<std::vector<double>> Values = getNumberVector(Obj, Key);
  if (!Values)
    return Values.error();
  std::vector<int> Out;
  Out.reserve(Values->size());
  for (size_t I = 0; I < Values->size(); ++I) {
    double V = (*Values)[I];
    if (V != std::floor(V))
      return Error(format("field '%s' element %zu must be an integer",
                          Key.c_str(), I));
    Out.push_back(static_cast<int>(V));
  }
  return Out;
}

Expected<std::vector<size_t>> opprox::getSizeVector(const Json &Obj,
                                                    const std::string &Key) {
  Expected<std::vector<double>> Values = getNumberVector(Obj, Key);
  if (!Values)
    return Values.error();
  std::vector<size_t> Out;
  Out.reserve(Values->size());
  for (size_t I = 0; I < Values->size(); ++I) {
    double V = (*Values)[I];
    if (V < 0 || V != std::floor(V))
      return Error(format("field '%s' element %zu must be a non-negative "
                          "integer",
                          Key.c_str(), I));
    Out.push_back(static_cast<size_t>(V));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// File I/O
//===----------------------------------------------------------------------===//

Expected<std::string> opprox::readFile(const std::string &Path) {
  if (faultPoint(faults::JsonRead))
    return Error(format("fault injection: simulated I/O failure reading '%s'",
                        Path.c_str()));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(format("cannot open '%s' for reading: %s", Path.c_str(),
                        std::strerror(errno)));
  std::string Out;
  char Buffer[1 << 16];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Out.append(Buffer, N);
  bool Failed = std::ferror(F) != 0;
  std::fclose(F);
  if (Failed)
    return Error(format("error while reading '%s'", Path.c_str()));
  return Out;
}

std::optional<Error> opprox::writeFile(const std::string &Path,
                                       const std::string &Contents) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Error(format("cannot open '%s' for writing: %s", Path.c_str(),
                        std::strerror(errno)));
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  bool CloseFailed = std::fclose(F) != 0;
  if (Written != Contents.size() || CloseFailed)
    return Error(format("error while writing '%s'", Path.c_str()));
  return std::nullopt;
}
