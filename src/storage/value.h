#ifndef XQDB_STORAGE_VALUE_H_
#define XQDB_STORAGE_VALUE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "xdm/item.h"
#include "xdm/join_key.h"

namespace xqdb {

/// SQL column types of the xqdb subset. DECIMAL is stored as double with
/// declared precision/scale (enough to reproduce the paper's examples).
enum class SqlType { kInteger, kDouble, kDecimal, kVarchar, kXml };

std::string_view SqlTypeName(SqlType t);

struct ColumnDef {
  std::string name;  // uppercase
  SqlType type = SqlType::kVarchar;
  int varchar_len = 0;   // kVarchar
  int dec_precision = 0;  // kDecimal
  int dec_scale = 0;
};

/// A SQL runtime value: NULL, a scalar, or an XML value. Per SQL/XML, the
/// XML type's values are XQuery data model *sequences* (paper §2: "the key
/// to this dual behavior is SQL's new XML data type, based on XDM").
class SqlValue {
 public:
  SqlValue() : kind_(Kind::kNull) {}

  static SqlValue Null() { return SqlValue(); }
  static SqlValue Integer(long long v);
  static SqlValue Double(double v);
  static SqlValue Varchar(std::string v);
  static SqlValue Xml(Sequence seq);

  enum class Kind { kNull, kInteger, kDouble, kVarchar, kXml };
  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  long long integer_value() const { return int_; }
  double double_value() const { return dbl_; }
  const std::string& varchar_value() const { return str_; }
  const Sequence& xml_value() const { return xml_; }

  /// Rendering for result display. XML sequences are serialized.
  std::string ToDisplayString() const;

  /// SQL comparison: numeric compare when both numeric; string compare
  /// ignores trailing blanks (the SQL-vs-XQuery semantic difference the
  /// paper calls out in §3.3/§3.6). NULL compares as unknown (empty result).
  /// XML operands are not comparable (must go through XMLCAST).
  static Result<int> Compare(const SqlValue& a, const SqlValue& b);

  /// Appends this value's hash-join key under Compare's equality
  /// (DESIGN.md §14): numbers as doubles, VARCHAR without trailing blanks,
  /// no key for NULL (an UNKNOWN comparison). Returns false where a hash
  /// join cannot reproduce Compare: an XML value (Compare raises) or a NaN
  /// double (Compare finds it equal to every number).
  bool AppendJoinKey(std::vector<JoinKey>* keys, unsigned* kinds) const;

 private:
  Kind kind_;
  long long int_ = 0;
  double dbl_ = 0;
  std::string str_;
  Sequence xml_;
};

}  // namespace xqdb

#endif  // XQDB_STORAGE_VALUE_H_
