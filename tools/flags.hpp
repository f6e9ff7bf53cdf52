#pragma once
/// \file flags.hpp
/// \brief The one flag parser behind `lamsdlc_cli` and `lamsdlcd`.
///
/// Each command declares its flags as a table of rows — name, operand name,
/// a one-line help with the default, and a setter — and hands the table to
/// `parse_flags`.  The parser matches every argument against the rows,
/// converts each operand over the whole string (no trailing junk, no sign on
/// an unsigned field, no overflow, nothing non-finite), applies the row's
/// range, and answers `--help` by printing the rows, so the help text and
/// the accepted flags cannot disagree.  Any bad usage prints one line and
/// exits 2 before the command opens a file or binds a socket.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "lamsdlc/core/time.hpp"

namespace lamsdlc::tools {

/// One row of a command's flag table.
struct Flag {
  const char* name;     ///< "--rate"
  const char* operand;  ///< "BPS" in --help; nullptr for a switch
  const char* help;     ///< one line, default in brackets
  /// Applies the operand (nullptr for a switch, or for an omitted optional
  /// operand); false rejects it.
  std::function<bool(const char*)> apply;
  std::string want{};     ///< what apply accepts, for the error message
  bool optional = false;  ///< operand may be omitted: `--bridge [PORT]`
};

using Flags = std::vector<Flag>;

/// The rows of \p a, then those of \p b.
inline Flags operator+(Flags a, const Flags& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Lower bound for a floating-point field that must be positive.
inline constexpr double kAboveZero = std::numeric_limits<double>::denorm_min();

/// \p s converted as a whole; nullopt on junk, a sign on an unsigned type,
/// or overflow.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end) return std::nullopt;
  return v;
}

template <typename T>
std::string accepted(T lo, T hi) {
  std::ostringstream os;
  os << (std::is_integral_v<T> ? "an integer" : "a number");
  if (std::is_integral_v<T> || hi < std::numeric_limits<T>::max()) {
    os << " in [" << lo << ", " << hi << "]";
  } else if (lo == kAboveZero) {
    os << " > 0";
  } else {
    os << " >= " << lo;
  }
  return os.str();
}

/// A numeric operand accepted in [lo, hi]; NaN and infinities never are.
template <typename T>
Flag num(const char* name, const char* operand, const char* help, T& dst,
         std::type_identity_t<T> lo,
         std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  return {name, operand, help,
          [&dst, lo, hi](const char* v) {
            const std::optional<T> x = parse_number<T>(v);
            const bool ok = x && *x >= lo && *x <= hi;
            if (ok) dst = *x;
            return ok;
          },
          accepted(lo, hi)};
}

/// A duration operand counted in units of \p unit_s seconds (1e-3 for MS).
/// \p positive is for the period of a periodic timer, which at zero would
/// reschedule itself at the same instant forever.  Half of Time's range
/// leaves headroom for `now + duration`.
inline Flag duration(const char* name, const char* operand, const char* help,
                     Time& dst, double unit_s, bool positive = false) {
  return {name, operand, help,
          [&dst, unit_s, positive](const char* v) {
            const std::optional<double> x = parse_number<double>(v);
            if (!x || !(*x >= 0 && *x * unit_s <= Time::max().sec() / 2)) {
              return false;
            }
            const Time t = Time::seconds(*x * unit_s);
            if (positive && t <= Time{}) return false;
            dst = t;
            return true;
          },
          positive ? "a duration > 0" : "a duration >= 0"};
}

inline Flag text(const char* name, const char* operand, const char* help,
                 std::string& dst) {
  return {name, operand, help, [&dst](const char* v) {
            dst = v;
            return true;
          }};
}

/// A switch that stores \p value.
template <typename T>
Flag set(const char* name, const char* help, T& dst,
         std::type_identity_t<T> value) {
  return {name, nullptr, help, [&dst, value](const char*) {
            dst = value;
            return true;
          }};
}

/// \p row, running \p after each time the row accepts its operand.
inline Flag also(Flag row, std::function<void()> after) {
  row.apply = [apply = std::move(row.apply),
               after = std::move(after)](const char* v) {
    if (!apply(v)) return false;
    after();
    return true;
  };
  return row;
}

inline bool is_help(std::string_view a) { return a == "--help" || a == "-h"; }

[[noreturn]] inline void usage_error(const char* prog,
                                     const std::string& what) {
  std::fprintf(stderr, "%s: %s (try %s --help)\n", prog, what.c_str(), prog);
  std::exit(2);
}

inline void print_flags(const Flags& rows) {
  for (const Flag& f : rows) {
    std::string lhs = f.name;
    if (f.operand != nullptr) {
      lhs += f.optional ? std::string{" ["} + f.operand + "]"
                        : std::string{" "} + f.operand;
    }
    std::printf("  %-28s %s\n", lhs.c_str(), f.help);
  }
}

/// Parses argv[first, argc) against \p rows.  A bare word is stored in
/// \p *positional (at most one; none when it is null).  `--help` prints
/// `usage: prog synopsis` and the rows, then exits 0; so a trailing `--help`
/// turns any command line into a parse-only check.
inline void parse_flags(int argc, char** argv, int first, const char* prog,
                        const char* synopsis, const Flags& rows,
                        std::string* positional = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (is_help(a)) {
      std::printf("usage: %s %s\n\nflags:\n", prog, synopsis);
      print_flags(rows);
      std::exit(0);
    }
    if (a.empty() || a[0] != '-') {
      if (positional == nullptr || !positional->empty()) {
        usage_error(prog, "unexpected argument '" + a + "'");
      }
      *positional = a;
      continue;
    }
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [&a](const Flag& f) { return a == f.name; });
    if (row == rows.end()) usage_error(prog, "unknown flag " + a);
    if (row->optional) {
      // The next argument is the operand only if the row accepts it.
      if (i + 1 < argc && row->apply(argv[i + 1])) {
        ++i;
      } else {
        row->apply(nullptr);
      }
      continue;
    }
    const char* v = nullptr;
    if (row->operand != nullptr) {
      if (i + 1 >= argc) usage_error(prog, "missing value for " + a);
      v = argv[++i];
    }
    if (!row->apply(v)) {
      usage_error(prog, "bad value '" + std::string{v != nullptr ? v : ""} +
                            "' for " + a + ": want " + row->want);
    }
  }
}

}  // namespace lamsdlc::tools
