#include "src/map/fault.h"

namespace dsa {

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPageNotPresent:
      return "page not present";
    case FaultKind::kSegmentNotPresent:
      return "segment not present";
    case FaultKind::kBoundsViolation:
      return "bounds violation";
    case FaultKind::kInvalidSegment:
      return "invalid segment";
    case FaultKind::kInvalidName:
      return "invalid name";
  }
  return "?";
}

}  // namespace dsa
