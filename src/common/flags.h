#ifndef DPR_COMMON_FLAGS_H_
#define DPR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace dpr {

/// Tiny `--key=value` command-line parser for bench/example binaries.
/// `--flag` with no value is treated as boolean true. A typed getter whose
/// flag holds text it cannot parse (`--threads=4x`, `--quick=maybe`) prints
/// a message naming the flag and exits with status 2, and so does
/// RejectUnknown for a flag name the binary never read (`--duraton_ms`).
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Exits with status 2 naming the first command-line flag that no Has or
  /// Get call has asked about, so a misspelled flag cannot silently run the
  /// default configuration. Call once every flag has been read.
  void RejectUnknown() const;

 private:
  const std::string* Find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  // Every key a Has/Get call asked about. Flags are read on one thread.
  mutable std::set<std::string> read_;
};

}  // namespace dpr

#endif  // DPR_COMMON_FLAGS_H_
