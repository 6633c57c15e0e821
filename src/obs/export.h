// Zero-dependency JSONL / CSV export of captured event streams, and the
// matching JSONL parser used by the golden-trace tests and the replay
// verifier's file mode.
//
// The wire format is one JSON object per line with the fields
//   {"t": <cycles>, "kind": "<name>", <per-kind payload fields>}
// in fixed key order, all values unsigned integers.  Because every field is
// integral, export is byte-deterministic across platforms — the property
// the golden-trace byte comparison relies on.

#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/expected.h"
#include "src/obs/event.h"

namespace dsa {

// Appends one event as one JSONL line (no trailing newline) — the one
// encoder every JSONL writer goes through.
void AppendEventJson(std::string* out, const TraceEvent& event);

// The same line as a fresh string.
std::string EventToJson(const TraceEvent& event);

// Writes one line per event.
void WriteEventsJsonl(const std::vector<TraceEvent>& events, std::ostream* out);
std::string EventsToJsonl(const std::vector<TraceEvent>& events);

// CSV with a fixed header `t,kind,a,b,c` (payload slots stay positional so
// every kind fits one schema).
void WriteEventsCsv(const std::vector<TraceEvent>& events, std::ostream* out);

struct EventParseError {
  std::size_t line{0};  // 1-based
  std::string message;
};

// Parses a stream previously written by WriteEventsJsonl.  Accepts the
// exporter's own format (fixed key order, integer values); a malformed line
// stops the parse and reports its number.  Blank lines are skipped.
Expected<std::vector<TraceEvent>, EventParseError> ReadEventsJsonl(std::istream* in);
Expected<std::vector<TraceEvent>, EventParseError> ParseEventsJsonl(const std::string& text);

}  // namespace dsa

#endif  // SRC_OBS_EXPORT_H_
