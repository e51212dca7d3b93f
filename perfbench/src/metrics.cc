#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank must be in (0, 1]");
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Counters diff(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    if (it == before.end())
      throw std::logic_error("counter " + name + " missing from snapshot");
    if (value < it->second)
      throw std::logic_error("counter " + name + " went backwards");
    out[name] = value - it->second;
  }
  return out;
}

void Tracer::record(const Span& span) {
  Shard& shard =
      shards_[std::hash<std::thread::id>{}(std::this_thread::get_id()) %
              kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.spans.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.spans.begin(), shard.spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       const ScopedSpan* parent)
    : tracer_(tracer) {
  if (!tracer_) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  if (parent != nullptr && parent->tracer_ != nullptr) {
    span_.parent = parent->span_.id;
    span_.op = parent->span_.op;
  } else {
    span_.op = span_.id;
  }
  span_.start_ns = Tracer::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_) return;
  span_.end_ns = Tracer::now_ns();
  tracer_->record(span_);
}

std::vector<int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

std::string spans_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace perfbench
