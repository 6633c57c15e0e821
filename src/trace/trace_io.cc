#include "src/trace/trace_io.h"

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "src/core/assert.h"
#include "src/core/parse.h"

namespace dsa {

namespace {

char KindChar(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return 'r';
    case AccessKind::kWrite:
      return 'w';
    case AccessKind::kExecute:
      return 'x';
  }
  return '?';
}

bool ParseKind(std::string_view token, AccessKind* kind) {
  if (token == "r") {
    *kind = AccessKind::kRead;
  } else if (token == "w") {
    *kind = AccessKind::kWrite;
  } else if (token == "x") {
    *kind = AccessKind::kExecute;
  } else {
    return false;
  }
  return true;
}

// Pops the next blank-delimited token off the front of `rest`; empty once
// none remain.  The blanks are the ones `istream >>` skips.
std::string_view NextToken(std::string_view* rest) {
  constexpr std::string_view kBlanks = " \t\r\v\f";
  const auto begin = rest->find_first_not_of(kBlanks);
  if (begin == std::string_view::npos) {
    *rest = {};
    return {};
  }
  rest->remove_prefix(begin);
  const std::string_view token = rest->substr(0, rest->find_first_of(kBlanks));
  rest->remove_prefix(token.size());
  return token;
}

// Fails if `rest` still holds a token after the fields of a `verb` line.
Status<std::string> ExpectLineEnd(std::string_view rest, std::string_view verb) {
  if (const std::string_view extra = NextToken(&rest); !extra.empty()) {
    return MakeUnexpected("trailing token after " + std::string(verb) + ": " + std::string(extra));
  }
  return Ok();
}

// Parses the fields of a `label` line after the verb: exactly one token.
Expected<std::string, std::string> ParseLabelFields(std::string_view rest) {
  const std::string_view label = NextToken(&rest);
  if (label.empty()) {
    return MakeUnexpected(std::string("expected: label <one token>"));
  }
  if (auto end = ExpectLineEnd(rest, "label"); !end.has_value()) {
    return MakeUnexpected(std::move(end.error()));
  }
  return std::string(label);
}

// Parses the fields of a `ref` line after the verb: exactly a decimal name
// and an access kind.  Signs, overflow and trailing tokens are errors.
Expected<Reference, std::string> ParseRefFields(std::string_view rest) {
  const std::string_view name_token = NextToken(&rest);
  const std::string_view kind_token = NextToken(&rest);
  if (kind_token.empty()) {
    return MakeUnexpected(std::string("expected: ref <name> <r|w|x>"));
  }
  auto name = ParseDecimal(name_token, "ref name");
  if (!name.has_value()) {
    return MakeUnexpected(std::move(name.error()));
  }
  AccessKind kind{};
  if (!ParseKind(kind_token, &kind)) {
    return MakeUnexpected("bad access kind: " + std::string(kind_token));
  }
  if (auto end = ExpectLineEnd(rest, "ref"); !end.has_value()) {
    return MakeUnexpected(std::move(end.error()));
  }
  return Reference{Name{name.value()}, kind};
}

// Parses the fields of an `alloc` line after the verb: exactly a decimal
// request id and a positive decimal size.
Expected<AllocOp, std::string> ParseAllocFields(std::string_view rest) {
  const std::string_view request_token = NextToken(&rest);
  const std::string_view size_token = NextToken(&rest);
  if (size_token.empty()) {
    return MakeUnexpected(std::string("expected: alloc <request> <size>"));
  }
  auto request = ParseDecimal(request_token, "alloc request");
  if (!request.has_value()) {
    return MakeUnexpected(std::move(request.error()));
  }
  auto size = ParseDecimal(size_token, "alloc size");
  if (!size.has_value()) {
    return MakeUnexpected(std::move(size.error()));
  }
  if (size.value() == 0) {
    return MakeUnexpected(std::string("alloc size must be positive"));
  }
  if (auto end = ExpectLineEnd(rest, "alloc"); !end.has_value()) {
    return MakeUnexpected(std::move(end.error()));
  }
  return AllocOp{AllocOpKind::kAllocate, request.value(), size.value()};
}

// Parses the fields of a `free` line after the verb: exactly a decimal
// request id.
Expected<AllocOp, std::string> ParseFreeFields(std::string_view rest) {
  const std::string_view request_token = NextToken(&rest);
  if (request_token.empty()) {
    return MakeUnexpected(std::string("expected: free <request>"));
  }
  auto request = ParseDecimal(request_token, "free request");
  if (!request.has_value()) {
    return MakeUnexpected(std::move(request.error()));
  }
  if (auto end = ExpectLineEnd(rest, "free"); !end.has_value()) {
    return MakeUnexpected(std::move(end.error()));
  }
  return AllocOp{AllocOpKind::kFree, request.value(), 0};
}

// Writes the `label` line the readers expect: one token, or no line at all
// for an empty label (which reads back empty).
void WriteLabelLine(const std::string& label, std::ostream* out) {
  if (label.empty()) {
    return;
  }
  DSA_ASSERT(label.find_first_of(" \t\r\v\f\n#") == std::string::npos,
             "a trace label must be one token");
  *out << "label " << label << "\n";
}

}  // namespace

void WriteReferenceTrace(const ReferenceTrace& trace, std::ostream* out) {
  *out << "# reference trace: " << trace.label << "\n";
  WriteLabelLine(trace.label, out);
  for (const Reference& r : trace.refs) {
    *out << "ref " << r.name.value << ' ' << KindChar(r.kind) << "\n";
  }
}

Expected<ReferenceTrace, TraceParseError> ReadReferenceTrace(std::istream* in) {
  ReferenceTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view rest(line);
    rest = rest.substr(0, rest.find('#'));
    const std::string_view verb = NextToken(&rest);
    if (verb.empty()) {
      continue;
    }
    if (verb == "label") {
      auto label = ParseLabelFields(rest);
      if (!label.has_value()) {
        return MakeUnexpected(TraceParseError{line_no, std::move(label.error())});
      }
      trace.label = std::move(label.value());
    } else if (verb == "ref") {
      auto ref = ParseRefFields(rest);
      if (!ref.has_value()) {
        return MakeUnexpected(TraceParseError{line_no, std::move(ref.error())});
      }
      trace.refs.push_back(ref.value());
    } else {
      return MakeUnexpected(TraceParseError{line_no, "unknown record: " + std::string(verb)});
    }
  }
  return trace;
}

void WriteAllocationTrace(const AllocationTrace& trace, std::ostream* out) {
  *out << "# allocation trace: " << trace.label << "\n";
  WriteLabelLine(trace.label, out);
  for (const AllocOp& op : trace.ops) {
    if (op.kind == AllocOpKind::kAllocate) {
      *out << "alloc " << op.request << ' ' << op.size << "\n";
    } else {
      *out << "free " << op.request << "\n";
    }
  }
}

Expected<AllocationTrace, TraceParseError> ReadAllocationTrace(std::istream* in) {
  AllocationTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string_view rest(line);
    rest = rest.substr(0, rest.find('#'));
    const std::string_view verb = NextToken(&rest);
    if (verb.empty()) {
      continue;
    }
    if (verb == "label") {
      auto label = ParseLabelFields(rest);
      if (!label.has_value()) {
        return MakeUnexpected(TraceParseError{line_no, std::move(label.error())});
      }
      trace.label = std::move(label.value());
      continue;
    }
    if (verb != "alloc" && verb != "free") {
      return MakeUnexpected(TraceParseError{line_no, "unknown record: " + std::string(verb)});
    }
    auto op = verb == "alloc" ? ParseAllocFields(rest) : ParseFreeFields(rest);
    if (!op.has_value()) {
      return MakeUnexpected(TraceParseError{line_no, std::move(op.error())});
    }
    trace.ops.push_back(op.value());
  }
  return trace;
}

}  // namespace dsa
