#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/check.h"

namespace galloper {

Flags::Flags(int argc, const char* const* argv,
             std::set<std::string> boolean_flags)
    : boolean_flags_(std::move(boolean_flags)) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

Flags::Flags(const std::vector<std::string>& args,
             std::set<std::string> boolean_flags)
    : boolean_flags_(std::move(boolean_flags)) {
  parse(args);
}

void Flags::parse(const std::vector<std::string>& args) {
  bool flags_done = false;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (flags_done || arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      if (arg == "--") {
        flags_done = true;
        continue;
      }
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value (if the next token isn't a flag), else boolean --name.
    // Registered boolean flags never consume the next token, so
    // "--stats <positional>" keeps the positional.
    if (boolean_flags_.count(body) == 0 && i + 1 < args.size() &&
        args[i + 1].compare(0, 2, "--") != 0) {
      values_[body] = args[++i];
    } else {
      values_[body] = "true";
    }
  }
}

void Flags::restrict_to(const std::set<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    (void)value;
    GALLOPER_CHECK_MSG(known.count(name) > 0 || boolean_flags_.count(name) > 0,
                       "unknown flag --" << name
                                         << " (run with no arguments for "
                                            "usage)");
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::optional<std::string> Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_or(const std::string& name,
                          const std::string& fallback) const {
  return get(name).value_or(fallback);
}

int64_t Flags::get_int(const std::string& name, int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  GALLOPER_CHECK_MSG(!v->empty() && end && *end == '\0',
                     "flag --" << name << " is not an integer: " << *v);
  GALLOPER_CHECK_MSG(errno != ERANGE,
                     "flag --" << name << " is out of range: " << *v);
  return parsed;
}

size_t Flags::get_size(const std::string& name, size_t fallback) const {
  if (!has(name)) return fallback;
  const int64_t parsed = get_int(name, 0);
  GALLOPER_CHECK_MSG(parsed >= 0, "flag --" << name << " must be >= 0: "
                                            << parsed);
  return static_cast<size_t>(parsed);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  GALLOPER_CHECK_MSG(end && *end == '\0',
                     "flag --" << name << " is not a number: " << *v);
  return parsed;
}

std::vector<double> Flags::get_doubles(const std::string& name) const {
  std::vector<double> out;
  const auto v = get(name);
  if (!v) return out;
  size_t start = 0;
  while (start <= v->size()) {
    size_t comma = v->find(',', start);
    if (comma == std::string::npos) comma = v->size();
    const std::string piece = v->substr(start, comma - start);
    GALLOPER_CHECK_MSG(!piece.empty(),
                       "empty element in list flag --" << name);
    char* end = nullptr;
    out.push_back(std::strtod(piece.c_str(), &end));
    GALLOPER_CHECK_MSG(end && *end == '\0',
                       "bad number '" << piece << "' in --" << name);
    start = comma + 1;
  }
  return out;
}

}  // namespace galloper
