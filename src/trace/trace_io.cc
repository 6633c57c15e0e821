#include "src/trace/trace_io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

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

// Strips comments and leading whitespace; returns false for blank lines.
bool MeaningfulLine(std::string* line) {
  const auto hash = line->find('#');
  if (hash != std::string::npos) {
    line->erase(hash);
  }
  const auto first = line->find_first_not_of(" \t\r");
  if (first == std::string::npos) {
    return false;
  }
  line->erase(0, first);
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

// Parses the fields of a `ref` line after the verb: exactly a decimal name
// and an access kind.  Signs, overflow and trailing tokens are errors.
Expected<Reference, std::string> ParseRefFields(std::string_view rest) {
  const std::string_view name_token = NextToken(&rest);
  const std::string_view kind_token = NextToken(&rest);
  if (kind_token.empty()) {
    return MakeUnexpected(std::string("expected: ref <name> <r|w|x>"));
  }
  std::uint64_t name = 0;
  const char* end = name_token.data() + name_token.size();
  const auto [ptr, ec] = std::from_chars(name_token.data(), end, name);
  if (ec == std::errc::result_out_of_range) {
    return MakeUnexpected("ref name out of range: " + std::string(name_token));
  }
  if (ec != std::errc{} || ptr != end) {
    return MakeUnexpected("bad ref name: " + std::string(name_token));
  }
  AccessKind kind{};
  if (!ParseKind(kind_token, &kind)) {
    return MakeUnexpected("bad access kind: " + std::string(kind_token));
  }
  if (const std::string_view extra = NextToken(&rest); !extra.empty()) {
    return MakeUnexpected("trailing token after ref: " + std::string(extra));
  }
  return Reference{Name{name}, kind};
}

}  // namespace

void WriteReferenceTrace(const ReferenceTrace& trace, std::ostream* out) {
  *out << "# reference trace: " << trace.label << "\n";
  *out << "label " << trace.label << "\n";
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
      if (const std::string_view label = NextToken(&rest); !label.empty()) {
        trace.label = label;
      }
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
  *out << "label " << trace.label << "\n";
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
    if (!MeaningfulLine(&line)) {
      continue;
    }
    std::istringstream fields(line);
    std::string verb;
    fields >> verb;
    if (verb == "label") {
      fields >> trace.label;
    } else if (verb == "alloc") {
      std::uint64_t request = 0;
      WordCount size = 0;
      if (!(fields >> request >> size) || size == 0) {
        return MakeUnexpected(TraceParseError{line_no, "expected: alloc <request> <size>=1..>"});
      }
      trace.ops.push_back({AllocOpKind::kAllocate, request, size});
    } else if (verb == "free") {
      std::uint64_t request = 0;
      if (!(fields >> request)) {
        return MakeUnexpected(TraceParseError{line_no, "expected: free <request>"});
      }
      trace.ops.push_back({AllocOpKind::kFree, request, 0});
    } else {
      return MakeUnexpected(TraceParseError{line_no, "unknown record: " + verb});
    }
  }
  return trace;
}

}  // namespace dsa
