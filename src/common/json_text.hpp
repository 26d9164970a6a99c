// The two JSON text primitives every byte-stable exporter shares: string
// escaping and the %.17g double rendering. One definition, so fleet,
// sweep, tournament, obs and serve output cannot drift apart.
#pragma once

#include <string>
#include <string_view>

namespace focv {

/// JSON string escaping (quotes not included): `"`, `\`, `\n`, `\r`
/// and `\t` get their short escapes, other control bytes `\u00XX`.
[[nodiscard]] std::string json_escape(std::string_view s);

/// %.17g: round-trips every double, and prints the same bytes on every
/// run and thread count. Non-finite values print as `inf` / `nan`.
[[nodiscard]] std::string format_number(double v);

}  // namespace focv
