#include "common/string_util.h"

#include <cctype>

namespace urm {

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> TokenizeIdentifier(std::string_view ident) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&]() {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (size_t i = 0; i < ident.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(ident[i]);
    if (!std::isalnum(c)) {
      flush();
      continue;
    }
    // A camelCase boundary: lower->upper, or upper followed by lower when
    // preceded by another upper ("PONumber" -> "po","number").
    if (std::isupper(c) && !cur.empty()) {
      unsigned char prev = static_cast<unsigned char>(ident[i - 1]);
      bool boundary = std::islower(prev) || std::isdigit(prev);
      if (!boundary && i + 1 < ident.size() &&
          std::islower(static_cast<unsigned char>(ident[i + 1]))) {
        boundary = true;
      }
      if (boundary) flush();
    }
    // Digit/letter boundary.
    if (!cur.empty()) {
      unsigned char prev = static_cast<unsigned char>(ident[i - 1]);
      if (std::isdigit(c) != std::isdigit(prev) && std::isalnum(prev)) {
        flush();
      }
    }
    cur.push_back(static_cast<char>(std::tolower(c)));
  }
  flush();
  return tokens;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.substr(0, prefix.size()) == prefix;
}

bool MatchesName(std::string_view s, std::string_view name) {
  auto matches = [&](bool skip_dashes) {
    size_t i = 0;
    for (char c : name) {
      if (skip_dashes && c == '-') continue;
      if (i == s.size() || std::tolower(static_cast<unsigned char>(s[i])) !=
                               std::tolower(static_cast<unsigned char>(c))) {
        return false;
      }
      ++i;
    }
    return i == s.size();
  };
  return matches(false) || matches(true);
}

}  // namespace urm
