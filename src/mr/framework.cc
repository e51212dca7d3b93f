#include "mr/framework.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace galloper::mr {

std::vector<KeyValue> shuffle_reduce(const Reducer& reducer,
                                     std::vector<KeyValue> intermediate) {
  // One (key, value) sort, then one reduce call per run of equal keys —
  // values are moved out of the pairs, the intermediate is consumed.
  std::sort(intermediate.begin(), intermediate.end());
  std::vector<KeyValue> out;
  std::vector<std::string> values;
  for (size_t i = 0; i < intermediate.size();) {
    const std::string& key = intermediate[i].key;
    values.clear();
    size_t j = i;
    for (; j < intermediate.size() && intermediate[j].key == key; ++j)
      values.push_back(std::move(intermediate[j].value));
    reducer.reduce(key, values, out);
    i = j;
  }
  // Reducers that emit under their own key in value order (every job in
  // this repo) already produce sorted output.
  if (!std::is_sorted(out.begin(), out.end()))
    std::sort(out.begin(), out.end());
  return out;
}

std::vector<KeyValue> LocalRunner::reduce_all(
    std::vector<KeyValue> intermediate) const {
  return shuffle_reduce(reducer_, std::move(intermediate));
}

std::vector<KeyValue> LocalRunner::run(
    const core::InputFormat& fmt,
    const std::vector<ConstByteSpan>& blocks) const {
  GALLOPER_CHECK(blocks.size() >= 1);
  std::vector<KeyValue> intermediate;
  // One map task per split; a task sees only its split's original bytes.
  for (const auto& split : fmt.splits()) {
    GALLOPER_CHECK(split.block < blocks.size());
    GALLOPER_CHECK(split.block_offset + split.length <=
                   blocks[split.block].size());
    mapper_.map(
        blocks[split.block].subspan(split.block_offset, split.length),
        intermediate);
  }
  return reduce_all(std::move(intermediate));
}

std::vector<KeyValue> LocalRunner::run_plain(ConstByteSpan file) const {
  std::vector<KeyValue> intermediate;
  mapper_.map(file, intermediate);
  return reduce_all(std::move(intermediate));
}

}  // namespace galloper::mr
