#include "mr/wordcount.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace galloper::mr {

namespace {

// A small vocabulary with Zipf-ish frequencies (rank r picked with
// probability ∝ 1/(r+1)).
constexpr std::array<const char*, 24> kVocabulary = {
    "the",  "of",    "and",   "to",      "data",  "block",  "code",
    "server", "disk", "node",  "read",   "write", "parity", "repair",
    "store",  "job",  "task",  "map",    "file",  "byte",   "rack",
    "fail",   "sync", "cache"};

}  // namespace

Buffer generate_text(size_t bytes, Rng& rng) {
  GALLOPER_CHECK_MSG(bytes % kWordCountRecordBytes == 0,
                     "text size must be a multiple of the record size");
  // Cumulative Zipf weights.
  std::array<double, kVocabulary.size()> cum{};
  double total = 0;
  for (size_t r = 0; r < kVocabulary.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cum[r] = total;
  }

  Buffer out;
  out.reserve(bytes);
  std::string record;
  while (out.size() < bytes) {
    record.clear();
    // Fill one record with words, then pad with spaces.
    for (;;) {
      const double u = rng.next_double() * total;
      size_t r = 0;
      while (cum[r] < u) ++r;
      const std::string_view word = kVocabulary[r];
      if (record.size() + word.size() + 1 > kWordCountRecordBytes) break;
      record.append(word);
      record.push_back(' ');
    }
    record.resize(kWordCountRecordBytes, ' ');
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

void WordCountMapper::map(ConstByteSpan input,
                          std::vector<KeyValue>& out) const {
  // In-mapper combining: count the split's words first (views into the
  // input), then emit one partial count per distinct word in key order.
  const auto is_space = [](char c) {
    return c == ' ' || c == '\n' || c == '\t';
  };
  std::unordered_map<std::string_view, uint64_t> counts;
  const char* it = reinterpret_cast<const char*>(input.data());
  const char* const end = it + input.size();
  while (it != end) {
    const char* word = std::find_if_not(it, end, is_space);
    it = std::find_if(word, end, is_space);
    if (word != it) ++counts[std::string_view(word, it - word)];
  }
  std::vector<std::pair<std::string_view, uint64_t>> sorted(counts.begin(),
                                                            counts.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [word, count] : sorted)
    out.push_back({std::string(word), std::to_string(count)});
}

void WordCountReducer::reduce(const std::string& key,
                              const std::vector<std::string>& values,
                              std::vector<KeyValue>& out) const {
  uint64_t count = 0;
  for (const auto& v : values) count += std::stoull(v);
  out.push_back({key, std::to_string(count)});
}

WorkloadProfile wordcount_profile() {
  WorkloadProfile p;
  p.name = "wordcount";
  p.map_bytes_per_cpu_unit = 25e6;    // tokenizing is CPU-bound
  p.shuffle_ratio = 0.05;             // combiner-style partial counts
  p.reduce_bytes_per_cpu_unit = 50e6;
  return p;
}

}  // namespace galloper::mr
