// Plain-text serialisation for traces, so experiments can be re-run on
// externally captured or hand-written workloads.
//
// Reference trace format (one record per line, '#' comments allowed):
//   label <token>
//   ref <name> <r|w|x>
// Allocation trace format:
//   label <token>
//   alloc <request-id> <size>
//   free <request-id>
//
// Parsing is strict: numbers are unsigned decimal u64 (no sign, no
// overflow), sizes are positive, a label is exactly one token, and any
// trailing token is a line-numbered TraceParseError.  The writers emit no
// label line for an empty label and require a nonempty one to be one token.

#ifndef SRC_TRACE_TRACE_IO_H_
#define SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "src/core/expected.h"
#include "src/trace/allocation.h"
#include "src/trace/reference.h"

namespace dsa {

struct TraceParseError {
  std::size_t line{0};
  std::string message;
};

void WriteReferenceTrace(const ReferenceTrace& trace, std::ostream* out);
Expected<ReferenceTrace, TraceParseError> ReadReferenceTrace(std::istream* in);

void WriteAllocationTrace(const AllocationTrace& trace, std::ostream* out);
Expected<AllocationTrace, TraceParseError> ReadAllocationTrace(std::istream* in);

}  // namespace dsa

#endif  // SRC_TRACE_TRACE_IO_H_
