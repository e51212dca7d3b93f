// Minimal command-line flag parsing for the CLI tool.
// Supports --name=value, --name value, boolean --name, and positionals;
// "--" ends flag parsing.
//
// The bare "--name value" form is ambiguous for boolean flags whose next
// token is a positional ("--stats file.bin" would swallow the file), so
// callers may pass the names of their boolean flags: those never consume
// the following token.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace galloper {

class Flags {
 public:
  Flags(int argc, const char* const* argv,  // argv[0] is skipped
        std::set<std::string> boolean_flags = {});
  explicit Flags(const std::vector<std::string>& args,  // no program name
                 std::set<std::string> boolean_flags = {});

  const std::vector<std::string>& positional() const { return positional_; }

  // Strict mode: throws CheckError if any parsed flag is not in `known`
  // (registered boolean flags are implicitly known). A typo like
  // "--thread=8" must die loudly instead of silently no-opping — the CLI
  // calls this with its full flag vocabulary right after parsing.
  void restrict_to(const std::set<std::string>& known) const;

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name,
                     const std::string& fallback) const;
  int64_t get_int(const std::string& name, int64_t fallback) const;
  // A count, size or offset: like get_int, but a negative value throws
  // CheckError instead of wrapping to a huge size_t.
  size_t get_size(const std::string& name, size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  // Comma-separated doubles, e.g. --perf=1,0.4,1 → {1, 0.4, 1}.
  std::vector<double> get_doubles(const std::string& name) const;

 private:
  void parse(const std::vector<std::string>& args);

  std::set<std::string> boolean_flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace galloper
