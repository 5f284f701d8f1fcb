#include "xdm/join_key.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

namespace xqdb {

size_t JoinKeyHash::operator()(const JoinKey& k) const {
  if (!k.numeric) return std::hash<std::string>()(k.str);
  uint64_t bits;
  std::memcpy(&bits, &k.num, sizeof(bits));
  return std::hash<uint64_t>()(bits);
}

bool AppendAtomicJoinKeys(const Sequence& atoms, bool value_comparison,
                          std::vector<JoinKey>* keys, unsigned* kinds) {
  if (value_comparison && atoms.size() > 1) return false;
  for (const Item& item : atoms) {
    const AtomicValue& v = item.atomic();
    JoinKey key;
    switch (v.type()) {
      case AtomicType::kDouble:
      case AtomicType::kInteger: {
        *kinds |= kNumericJoinKey;
        const double d = v.AsDouble();
        if (std::isnan(d)) continue;  // unordered: equal to nothing
        key.numeric = true;
        key.num = d == 0 ? 0.0 : d;  // -0 == +0
        break;
      }
      case AtomicType::kString:
      case AtomicType::kUntypedAtomic:
        *kinds |= kStringJoinKey;
        key.str = v.string_value();
        break;
      default:
        return false;
    }
    keys->push_back(std::move(key));
  }
  return true;
}

void JoinKeyTable::Add(const JoinKey& key, uint32_t id) {
  std::vector<uint32_t>& ids = buckets_[key];
  if (ids.empty() || ids.back() != id) ids.push_back(id);
}

void JoinKeyTable::Lookup(const std::vector<JoinKey>& keys,
                          std::vector<uint32_t>* out) const {
  out->clear();
  for (const JoinKey& key : keys) {
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }
  if (keys.size() > 1) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

}  // namespace xqdb
