#include "response.h"

#include <cstdlib>
#include <string>

namespace t5 {

namespace {

// Parses one JSON string starting at body[*pos] == '"' into `out`.
bool ParseString(std::string_view body, size_t* pos, std::string* out) {
  size_t i = *pos;
  if (i >= body.size() || body[i] != '"') return false;
  ++i;
  while (i < body.size()) {
    char c = body[i++];
    if (c == '"') {
      *pos = i;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= body.size()) return false;
    char e = body[i++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 > body.size()) return false;
        unsigned code = static_cast<unsigned>(
            std::strtoul(std::string(body.substr(i, 4)).c_str(), nullptr, 16));
        i += 4;
        if (code > 0x7f) return false;  // the server only escapes controls
        out->push_back(static_cast<char>(code));
        break;
      }
      default: return false;
    }
  }
  return false;
}

void SkipSpace(std::string_view body, size_t* pos) {
  while (*pos < body.size() &&
         (body[*pos] == ' ' || body[*pos] == '\n' || body[*pos] == '\r' ||
          body[*pos] == '\t')) {
    ++*pos;
  }
}

}  // namespace

bool DigestResponseRows(std::string_view body, RowDigest* digest) {
  size_t pos = body.find("\"rows\": [");
  if (pos == std::string_view::npos) return false;
  pos += 9;
  for (;;) {
    SkipSpace(body, &pos);
    if (pos >= body.size()) return false;
    if (body[pos] == ']') return true;
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    if (body[pos] != '[') return false;
    ++pos;
    std::string row;
    bool first = true;
    for (;;) {
      SkipSpace(body, &pos);
      if (pos >= body.size()) return false;
      if (body[pos] == ']') {
        ++pos;
        break;
      }
      if (body[pos] == ',') {
        ++pos;
        continue;
      }
      if (!first) row.push_back(kCellSeparator);
      first = false;
      if (!ParseString(body, &pos, &row)) return false;
    }
    digest->Add(row);
  }
}

int64_t JsonInt(std::string_view body, std::string_view name) {
  std::string needle = "\"";
  needle += name;
  needle += "\": ";
  size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return -1;
  return std::strtoll(std::string(body.substr(pos + needle.size(), 24)).c_str(),
                      nullptr, 10);
}

}  // namespace t5
