/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * Exists so the telemetry exporters (obs/export.h) can be validated by
 * round-trip tests without an external dependency, and so tools that
 * consume `vespera-metrics` documents (trajectory diffing, CI checks)
 * can parse them in-process. Supports the full JSON value grammar but
 * is tuned for small machine-generated documents, not streaming.
 */

#ifndef VESPERA_COMMON_JSON_H
#define VESPERA_COMMON_JSON_H

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vespera::json {

/** One JSON value (tagged union over the six JSON types). */
class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Value() = default;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isBool() const { return type_ == Type::Bool; }

    bool boolean() const { return bool_; }
    double number() const { return number_; }
    const std::string &str() const { return string_; }
    const std::vector<Value> &array() const { return array_; }
    const std::map<std::string, Value> &object() const { return object_; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /**
     * `find` across a dotted path ("counters.mme.flops"). Literal
     * keys win: keys containing dots (metrics counter names) are
     * matched before the path is split.
     */
    const Value *findPath(const std::string &dotted) const;

    /// @name Construction helpers (used by the parser and tests).
    /// @{
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::map<std::string, Value> members);
    /// @}

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    std::vector<Value> array_;
    std::map<std::string, Value> object_;
};

/**
 * Parse a JSON document. Returns false (and fills `error` with a
 * byte-offset message, when non-null) on malformed input; `out` is
 * unspecified on failure. A value nested more than 64 containers deep
 * fails ("nesting depth 65 exceeds the limit of 64 at byte N"), so no
 * input can exhaust the stack.
 */
bool parse(const std::string &text, Value &out,
           std::string *error = nullptr);

/** Serialize a value back to compact JSON (round-trip counterpart). */
std::string serialize(const Value &v);

} // namespace vespera::json

#endif // VESPERA_COMMON_JSON_H
