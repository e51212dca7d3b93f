// Shared helpers for the figure-reproduction bench binaries.
//
// Each binary prints the rows/series of one paper table or figure. Scale
// knobs (so the default `for b in build/bench/*; do $b; done` loop stays
// fast) come from the environment:
//   GALLOPER_BENCH_MB    block size in MiB   (default 16; paper used 45)
//   GALLOPER_BENCH_REPS  repetitions         (default 3;  paper used 20)
//   GALLOPER_BENCH_JSON  when set to a path, binaries that support it also
//                        write machine-readable results there (JsonWriter)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

#include "codes/erasure_code.h"
#include "codes/plan.h"
#include "gf/region_dispatch.h"
#include "rt/pool.h"
#include "util/bytes.h"
#include "util/stats.h"

namespace galloper::bench {

inline size_t env_size(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

inline size_t block_mib() { return env_size("GALLOPER_BENCH_MB", 16); }
inline size_t reps() { return env_size("GALLOPER_BENCH_REPS", 3); }

// Timed repetitions of a cell whose ratio a CI floor judges: never fewer
// than 5 whatever GALLOPER_BENCH_REPS says, so a floor never rests on one
// sub-millisecond timing. Callers run one untimed warm-up first.
inline size_t gated_reps() { return std::max<size_t>(5, reps()); }

// Wall-clock seconds of fn().
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// A file size that encodes into blocks of ≈ the requested MiB for `code`
// (exact multiple of the code's chunk structure).
inline size_t file_bytes_for_block(const codes::ErasureCode& code,
                                   size_t target_block_bytes) {
  const size_t stripes = code.stripes_per_block();
  const size_t chunk = (target_block_bytes + stripes - 1) / stripes;
  return code.engine().num_chunks() * chunk;
}

inline std::map<size_t, ConstByteSpan> block_view(
    const std::vector<Buffer>& blocks, const std::vector<size_t>& ids) {
  std::map<size_t, ConstByteSpan> m;
  for (size_t id : ids) m.emplace(id, blocks[id]);
  return m;
}

// Path for machine-readable output, or nullptr when not requested.
inline const char* bench_json_path() {
  return std::getenv("GALLOPER_BENCH_JSON");
}

// Minimal streaming JSON emitter for bench results: objects/arrays with
// automatic comma placement (a stack tracks whether the current container
// already has a member). No escaping beyond what bench keys need — keys and
// string values must not contain quotes or backslashes.
class JsonWriter {
 public:
  std::string str() const { return out_.str(); }

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  // Key for the next value (objects only).
  JsonWriter& key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(const std::string& v) { return emit('"' + v + '"'); }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    std::ostringstream ss;
    ss << v;
    return emit(ss.str());
  }
  JsonWriter& value(size_t v) { return emit(std::to_string(v)); }
  JsonWriter& value(int v) { return emit(std::to_string(v)); }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ << c;
    pending_key_ = false;
    had_member_.push_back(false);
    return *this;
  }
  JsonWriter& close(char c) {
    GALLOPER_CHECK(!had_member_.empty());
    had_member_.pop_back();
    out_ << c;
    return *this;
  }
  JsonWriter& emit(const std::string& text) {
    comma();
    out_ << text;
    pending_key_ = false;
    return *this;
  }
  void comma() {
    if (pending_key_) return;  // value completing a "key": pair
    if (!had_member_.empty()) {
      if (had_member_.back()) out_ << ',';
      had_member_.back() = true;
    }
  }

  std::ostringstream out_;
  std::vector<bool> had_member_;
  bool pending_key_ = false;
};

// Emits the hardware/runtime context every JSON result should carry — a
// number without the machine it ran on is not reproducible. Written as a
// "context" object member; call between begin_object() and the results.
inline void write_context(JsonWriter& json) {
  json.key("context").begin_object();
  json.key("hardware_threads")
      .value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.key("pool_threads").value(rt::ThreadPool::default_threads());
  json.key("gf_isa").value(gf::isa_name(gf::active_isa()));
  json.key("plan_cache_entries").value(codes::PlanCache::global().capacity());
  json.key("bench_mb").value(block_mib());
  json.key("bench_reps").value(reps());
  json.end_object();
}

inline void write_json_file(const char* path, const JsonWriter& json) {
  std::FILE* f = std::fopen(path, "w");
  GALLOPER_CHECK_MSG(f != nullptr, "cannot write " << path);
  const std::string s = json.str();
  std::fwrite(s.data(), 1, s.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

inline void print_header(const char* figure, const char* what) {
  std::printf("==== %s — %s ====\n", figure, what);
  std::printf("(block %zu MiB, %zu reps; set GALLOPER_BENCH_MB / "
              "GALLOPER_BENCH_REPS to match the paper's 45 MiB / 20)\n\n",
              block_mib(), reps());
}

}  // namespace galloper::bench
