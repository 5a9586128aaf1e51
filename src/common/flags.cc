#include "common/flags.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace dpr {

namespace {

/// A typo'd value must not silently run some other configuration: name the
/// flag and exit.
[[noreturn]] void RejectValue(const std::string& key, const std::string& value,
                              const char* expected) {
  fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n", key.c_str(),
          value.c_str(), expected);
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() < 3 || arg.substr(0, 2) != "--") continue;
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

const std::string* Flags::Find(const std::string& key) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  const std::string* found = Find(key);
  return found == nullptr ? default_value : *found;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  const std::string* found = Find(key);
  if (found == nullptr) return default_value;
  const std::string& text = *found;
  const char* end = text.data() + text.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) RejectValue(key, text, "an integer");
  return value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  const std::string* found = Find(key);
  if (found == nullptr) return default_value;
  const std::string& text = *found;
  char* end = nullptr;
  errno = 0;
  const double value = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    RejectValue(key, text, "a number");
  }
  return value;
}

bool Flags::GetBool(const std::string& key, bool default_value) const {
  const std::string* found = Find(key);
  if (found == nullptr) return default_value;
  const std::string& text = *found;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  RejectValue(key, text, "true/false, 1/0 or yes/no");
}

void Flags::RejectUnknown() const {
  for (const auto& [key, value] : values_) {
    (void)value;
    if (read_.count(key) == 0) {
      fprintf(stderr, "unknown flag --%s\n", key.c_str());
      std::exit(2);
    }
  }
}

}  // namespace dpr
