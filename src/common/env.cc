#include "common/env.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace jarvis::env {
namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

[[noreturn]] void Die(const Status& st) {
  std::fprintf(stderr, "jarvis: %s\n", st.ToString().c_str());
  std::abort();
}

}  // namespace

std::optional<std::string> Raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

Result<long> Int(const char* name, long def, long min_value, long max_value) {
  std::optional<std::string> raw = Raw(name);
  if (!raw) return def;
  long v = 0;
  const char* b = raw->data();
  const char* e = b + raw->size();
  auto [p, ec] = std::from_chars(b, e, v);
  if (ec != std::errc() || p != e) {
    return Status::InvalidArgument(std::string(name) + "=\"" + *raw +
                                   "\" is not an integer");
  }
  if (v < min_value || v > max_value) {
    return Status::OutOfRange(std::string(name) + "=" + *raw +
                              " outside accepted range [" +
                              std::to_string(min_value) + ", " +
                              std::to_string(max_value) + "]");
  }
  return v;
}

Result<bool> Flag(const char* name, bool def) {
  std::optional<std::string> raw = Raw(name);
  if (!raw) return def;
  const std::string v = Lower(*raw);
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  return Status::InvalidArgument(std::string(name) + "=\"" + *raw +
                                 "\" is not a flag (use 1/on/true/yes or "
                                 "0/off/false/no)");
}

long IntOrDie(const char* name, long def, long min_value, long max_value) {
  Result<long> r = Int(name, def, min_value, max_value);
  if (!r.ok()) Die(r.status());
  return *r;
}

bool FlagOrDie(const char* name, bool def) {
  Result<bool> r = Flag(name, def);
  if (!r.ok()) Die(r.status());
  return *r;
}

}  // namespace jarvis::env
