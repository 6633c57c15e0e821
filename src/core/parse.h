// Strict numeric fields for the repository's text formats: reference and
// allocation traces, event JSONL and checkpoint manifests.  A field either
// parses exactly or is rejected; nothing is skipped, signed or wrapped.

#ifndef SRC_CORE_PARSE_H_
#define SRC_CORE_PARSE_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

#include "src/core/expected.h"

namespace dsa {

// Parses one decimal field: no sign, no blank, no trailing characters, no
// overflow.  `what` names the field in the error message.
inline Expected<std::uint64_t, std::string> ParseDecimal(std::string_view token,
                                                         std::string_view what) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return MakeUnexpected(std::string(what) + " out of range: " + std::string(token));
  }
  if (ec != std::errc{} || ptr != end) {
    return MakeUnexpected("bad " + std::string(what) + ": " + std::string(token));
  }
  return value;
}

}  // namespace dsa

#endif  // SRC_CORE_PARSE_H_
