#ifndef DPR_COMMON_FLAGS_H_
#define DPR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace dpr {

/// Tiny `--key=value` command-line parser for bench/example binaries.
/// Unknown flags are tolerated (stored and retrievable), `--flag` with no
/// value is treated as boolean true. A typed getter whose flag holds text it
/// cannot parse (`--threads=4x`, `--quick=maybe`) prints a message naming
/// the flag and exits with status 2.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace dpr

#endif  // DPR_COMMON_FLAGS_H_
