// Mapping faults: the paper's hardware facility (v), "the automatic trapping
// of attempts to access information not currently in working storage ... at
// the heart of the demand paging strategy", plus facility (ii), address
// bound violation detection.

#ifndef SRC_MAP_FAULT_H_
#define SRC_MAP_FAULT_H_

#include <cstdint>

#include "src/core/types.h"

namespace dsa {

enum class FaultKind : std::uint8_t {
  kPageNotPresent,     // demand-paging trap
  kSegmentNotPresent,  // demand-segment trap (B5000/Rice fetch on first reference)
  kBoundsViolation,    // name outside the segment/limit extent (illegal subscript)
  kInvalidSegment,     // no such segment in the table
  kInvalidName,        // name outside the address representation
};

struct Fault {
  FaultKind kind{FaultKind::kInvalidName};
  Name name;               // the offending name
  SegmentId segment;       // meaningful for segment-related faults
  PageId page;             // meaningful for page-related faults
  Cycles detection_cost{0};  // translation cycles spent before the trap fired
};

const char* ToString(FaultKind kind);

}  // namespace dsa

#endif  // SRC_MAP_FAULT_H_
