#ifndef XQDB_XDM_JOIN_KEY_H_
#define XQDB_XDM_JOIN_KEY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "xdm/item.h"

namespace xqdb {

/// One hash-join key (DESIGN.md §14): a number compared as xs:double, or a
/// string compared by codepoints. Two values the join comparison would call
/// equal always produce equal keys, so a bucket lookup never misses a match;
/// it may return extra candidates (two large integers that round to the
/// same double), which the re-applied predicate rejects.
struct JoinKey {
  bool numeric = false;
  double num = 0;  // never NaN; -0 is stored as +0
  std::string str;

  bool operator==(const JoinKey& o) const {
    return numeric == o.numeric && (numeric ? num == o.num : str == o.str);
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const;
};

/// Key kinds seen on the two sides of one join. A join whose keys mix
/// numbers and strings would compare a number with a string somewhere —
/// a cast (untypedAtomic vs numeric) or an error — so it falls back to
/// the nested loop.
enum JoinKeyKind : unsigned {
  kNumericJoinKey = 1,
  kStringJoinKey = 2,
};

/// True when the kinds of both sides can only ever be compared without a
/// cast: all numeric or all string.
inline bool JoinKeyKindsCompatible(unsigned kinds) {
  return kinds != (kNumericJoinKey | kStringJoinKey);
}

/// Appends the keys of one atomized comparison operand under XQuery rules:
/// numerics by xs:double value (NaN equals nothing, so it adds no key),
/// xs:string and xs:untypedAtomic by codepoints. Returns false when the
/// operand could make `=` or `eq` cast or raise: a boolean or temporal
/// value, or, for a value comparison, more than one item (XPTY0004).
bool AppendAtomicJoinKeys(const Sequence& atoms, bool value_comparison,
                          std::vector<JoinKey>* keys, unsigned* kinds);

/// Build side of a hash join: key -> ids, each bucket ascending.
class JoinKeyTable {
 public:
  /// Ids must arrive in ascending order; a repeated key of one id is
  /// stored once.
  void Add(const JoinKey& key, uint32_t id);

  /// Every id sharing a bucket with one of `keys`: ascending, no
  /// duplicates.
  void Lookup(const std::vector<JoinKey>& keys,
              std::vector<uint32_t>* out) const;

 private:
  std::unordered_map<JoinKey, std::vector<uint32_t>, JoinKeyHash> buckets_;
};

}  // namespace xqdb

#endif  // XQDB_XDM_JOIN_KEY_H_
