#include "storage/value.h"

#include <cmath>

#include "common/str_util.h"
#include "xml/serializer.h"

namespace xqdb {

std::string_view SqlTypeName(SqlType t) {
  switch (t) {
    case SqlType::kInteger:
      return "INTEGER";
    case SqlType::kDouble:
      return "DOUBLE";
    case SqlType::kDecimal:
      return "DECIMAL";
    case SqlType::kVarchar:
      return "VARCHAR";
    case SqlType::kXml:
      return "XML";
  }
  return "?";
}

SqlValue SqlValue::Integer(long long v) {
  SqlValue out;
  out.kind_ = Kind::kInteger;
  out.int_ = v;
  return out;
}

SqlValue SqlValue::Double(double v) {
  SqlValue out;
  out.kind_ = Kind::kDouble;
  out.dbl_ = v;
  return out;
}

SqlValue SqlValue::Varchar(std::string v) {
  SqlValue out;
  out.kind_ = Kind::kVarchar;
  out.str_ = std::move(v);
  return out;
}

SqlValue SqlValue::Xml(Sequence seq) {
  SqlValue out;
  out.kind_ = Kind::kXml;
  out.xml_ = std::move(seq);
  return out;
}

std::string SqlValue::ToDisplayString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInteger:
      return FormatInt(int_);
    case Kind::kDouble:
      return FormatXsDouble(dbl_);
    case Kind::kVarchar:
      return str_;
    case Kind::kXml: {
      std::string out;
      for (size_t i = 0; i < xml_.size(); ++i) {
        if (i > 0) out += " ";
        if (xml_[i].is_node()) {
          out += SerializeXml(xml_[i].node());
        } else {
          out += xml_[i].atomic().Lexical();
        }
      }
      if (xml_.empty()) out = "()";
      return out;
    }
  }
  return "";
}

namespace {

std::string_view StripTrailingBlanks(std::string_view s) {
  size_t e = s.size();
  while (e > 0 && s[e - 1] == ' ') --e;
  return s.substr(0, e);
}

}  // namespace

Result<int> SqlValue::Compare(const SqlValue& a, const SqlValue& b) {
  if (a.kind_ == Kind::kXml || b.kind_ == Kind::kXml) {
    return Status::TypeError(
        "XML values cannot be compared with SQL operators; use XMLCAST or "
        "express the predicate in XQuery (paper Tip 6)");
  }
  auto as_double = [](const SqlValue& v) {
    return v.kind_ == Kind::kInteger ? static_cast<double>(v.int_) : v.dbl_;
  };
  bool a_num = a.kind_ == Kind::kInteger || a.kind_ == Kind::kDouble;
  bool b_num = b.kind_ == Kind::kInteger || b.kind_ == Kind::kDouble;
  if (a_num && b_num) {
    double x = as_double(a), y = as_double(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.kind_ == Kind::kVarchar && b.kind_ == Kind::kVarchar) {
    // SQL string comparison pads with blanks: trailing blanks are not
    // significant (unlike XQuery, where they are).
    int c = std::string(StripTrailingBlanks(a.str_))
                .compare(std::string(StripTrailingBlanks(b.str_)));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a_num && b.kind_ == Kind::kVarchar) {
    auto d = ParseXsDouble(b.str_);
    if (!d) {
      return Status::TypeError("cannot compare numeric with string '" +
                               b.str_ + "'");
    }
    double x = as_double(a);
    return x < *d ? -1 : (x > *d ? 1 : 0);
  }
  if (b_num && a.kind_ == Kind::kVarchar) {
    XQDB_ASSIGN_OR_RETURN(int inv, Compare(b, a));
    return -inv;
  }
  return Status::TypeError("incomparable SQL values");
}

bool SqlValue::AppendJoinKey(std::vector<JoinKey>* keys,
                             unsigned* kinds) const {
  JoinKey key;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kXml:
      return false;
    case Kind::kInteger:
    case Kind::kDouble: {
      const double d = kind_ == Kind::kInteger ? static_cast<double>(int_)
                                               : dbl_;
      if (std::isnan(d)) return false;
      *kinds |= kNumericJoinKey;
      key.numeric = true;
      key.num = d == 0 ? 0.0 : d;  // -0 == +0
      break;
    }
    case Kind::kVarchar:
      *kinds |= kStringJoinKey;
      key.str = std::string(StripTrailingBlanks(str_));
      break;
  }
  keys->push_back(std::move(key));
  return true;
}

}  // namespace xqdb
