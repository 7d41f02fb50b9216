// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value`, boolean switches (`--full`),
// and auto-generated `--help`. Unknown flags are an error so typos in
// experiment scripts fail loudly instead of silently running the default.
//
// Google-benchmark binaries pass through flags they own (--benchmark_*).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cas::util {

class Flags {
 public:
  /// `program_doc` is printed at the top of --help output.
  explicit Flags(std::string program_doc) : doc_(std::move(program_doc)) {}

  // Registration. Call before parse(); returns *this for chaining.
  Flags& add_int(const std::string& name, long long def, const std::string& help);
  Flags& add_double(const std::string& name, double def, const std::string& help);
  Flags& add_bool(const std::string& name, bool def, const std::string& help);
  Flags& add_string(const std::string& name, const std::string& def, const std::string& help);

  /// Parse argv. On `--help`, prints usage and returns false (caller should
  /// exit 0). Throws std::runtime_error on malformed/unknown flags.
  /// Flags with prefixes in `passthrough_prefixes` are ignored (e.g.
  /// "benchmark_" for google-benchmark's own flags).
  bool parse(int argc, char** argv,
             const std::vector<std::string>& passthrough_prefixes = {});

  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] std::string help_text() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Entry {
    Kind kind;
    std::string help;
    long long i = 0;
    double d = 0;
    bool b = false;
    std::string s{};
    std::string default_repr{};
  };

  void set_value(const std::string& name, const std::string& value);
  const Entry& entry(const std::string& name, Kind kind) const;

  std::string doc_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace cas::util
