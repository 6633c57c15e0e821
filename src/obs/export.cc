#include "src/obs/export.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "src/core/parse.h"

namespace dsa {

namespace {

void AppendU64(std::string* out, std::uint64_t value) {
  char buf[20];  // 2^64 - 1 has 20 digits
  const char* const end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, static_cast<std::size_t>(end - buf));
}

void AppendField(std::string* out, const char* name, std::uint64_t value) {
  out->append(", \"");
  out->append(name);
  out->append("\": ");
  AppendU64(out, value);
}

}  // namespace

void AppendEventJson(std::string* out, const TraceEvent& event) {
  out->append("{\"t\": ");
  AppendU64(out, event.time);
  out->append(", \"kind\": \"");
  out->append(ToString(event.kind));
  out->push_back('"');
  const EventFieldNames names = FieldNamesFor(event.kind);
  if (names.a != nullptr) {
    AppendField(out, names.a, event.a);
  }
  if (names.b != nullptr) {
    AppendField(out, names.b, event.b);
  }
  if (names.c != nullptr) {
    AppendField(out, names.c, event.c);
  }
  out->push_back('}');
}

std::string EventToJson(const TraceEvent& event) {
  std::string line;
  AppendEventJson(&line, event);
  return line;
}

void WriteEventsJsonl(const std::vector<TraceEvent>& events, std::ostream* out) {
  std::string line;
  for (const TraceEvent& event : events) {
    line.clear();
    AppendEventJson(&line, event);
    line.push_back('\n');
    out->write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

std::string EventsToJsonl(const std::vector<TraceEvent>& events) {
  std::string lines;
  for (const TraceEvent& event : events) {
    AppendEventJson(&lines, event);
    lines.push_back('\n');
  }
  return lines;
}

void WriteEventsCsv(const std::vector<TraceEvent>& events, std::ostream* out) {
  *out << "t,kind,a,b,c\n";
  for (const TraceEvent& event : events) {
    *out << event.time << ',' << ToString(event.kind) << ',' << event.a << ',' << event.b
         << ',' << event.c << '\n';
  }
}

namespace {

// Minimal scanner for the exporter's own line format.
struct LineScanner {
  const char* p;

  void SkipSpace() {
    while (*p == ' ') {
      ++p;
    }
  }
  bool Literal(char c) {
    SkipSpace();
    if (*p != c) {
      return false;
    }
    ++p;
    return true;
  }
  // Unsigned decimal digits; a value past 2^64 - 1 is malformed, not wrapped.
  bool Number(std::uint64_t* out) {
    SkipSpace();
    const char* end = p;
    while (*end >= '0' && *end <= '9') {
      ++end;
    }
    const auto value =
        ParseDecimal(std::string_view(p, static_cast<std::size_t>(end - p)), "number");
    if (!value.has_value()) {
      return false;
    }
    *out = value.value();
    p = end;
    return true;
  }
  // Reads a quoted string into `buf` (bounded; the wire names are short).
  bool QuotedString(char* buf, std::size_t cap) {
    SkipSpace();
    if (*p != '"') {
      return false;
    }
    ++p;
    std::size_t n = 0;
    while (*p != '"' && *p != '\0') {
      if (n + 1 >= cap) {
        return false;
      }
      buf[n++] = *p++;
    }
    if (*p != '"') {
      return false;
    }
    ++p;
    buf[n] = '\0';
    return true;
  }
  // Matches `"name":` with the exact expected name.
  bool Key(const char* name) {
    char buf[64];
    if (!QuotedString(buf, sizeof(buf))) {
      return false;
    }
    const char* a = buf;
    const char* b = name;
    while (*a != '\0' && *a == *b) {
      ++a;
      ++b;
    }
    if (*a != *b) {
      return false;
    }
    return Literal(':');
  }
};

Expected<TraceEvent, std::string> ParseLine(const std::string& line) {
  LineScanner s{line.c_str()};
  TraceEvent event;
  if (!s.Literal('{') || !s.Key("t") || !s.Number(&event.time) || !s.Literal(',') ||
      !s.Key("kind")) {
    return MakeUnexpected(std::string("malformed event header"));
  }
  char kind_name[48];
  if (!s.QuotedString(kind_name, sizeof(kind_name))) {
    return MakeUnexpected(std::string("malformed kind string"));
  }
  if (!EventKindFromString(kind_name, &event.kind)) {
    return MakeUnexpected("unknown event kind '" + std::string(kind_name) + "'");
  }
  const EventFieldNames names = FieldNamesFor(event.kind);
  const char* field_names[] = {names.a, names.b, names.c};
  std::uint64_t* slots[] = {&event.a, &event.b, &event.c};
  for (int i = 0; i < 3 && field_names[i] != nullptr; ++i) {
    if (!s.Literal(',') || !s.Key(field_names[i]) || !s.Number(slots[i])) {
      return MakeUnexpected("missing field '" + std::string(field_names[i]) + "'");
    }
  }
  if (!s.Literal('}')) {
    return MakeUnexpected(std::string("trailing content in event"));
  }
  s.SkipSpace();
  if (*s.p != '\0') {
    return MakeUnexpected(std::string("trailing content after event"));
  }
  return event;
}

}  // namespace

Expected<std::vector<TraceEvent>, EventParseError> ReadEventsJsonl(std::istream* in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    auto parsed = ParseLine(line);
    if (!parsed.has_value()) {
      return MakeUnexpected(EventParseError{line_number, parsed.error()});
    }
    events.push_back(*parsed);
  }
  return events;
}

Expected<std::vector<TraceEvent>, EventParseError> ParseEventsJsonl(const std::string& text) {
  std::istringstream in(text);
  return ReadEventsJsonl(&in);
}

}  // namespace dsa
