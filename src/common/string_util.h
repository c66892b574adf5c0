#pragma once

#include <string>
#include <string_view>
#include <vector>

/// \file string_util.h
/// Small string helpers shared by the matcher and plan printers.

namespace urm {

/// ASCII lower-casing (schema attribute names are ASCII).
std::string ToLower(std::string_view s);

/// Splits on a single character; empty pieces are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Splits an identifier into lowercase word tokens. Handles camelCase,
/// snake_case, digits, and non-alphanumeric separators:
///   "deliverToStreet" -> {"deliver","to","street"}
///   "l_shipdate"      -> {"l","shipdate"}
std::vector<std::string> TokenizeIdentifier(std::string_view ident);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` spells `name` ignoring ASCII case, either as written or
/// with every '-' of `name` left out: "o-sharing", "O-Sharing" and
/// "osharing" all match "o-sharing".
bool MatchesName(std::string_view s, std::string_view name);

}  // namespace urm
