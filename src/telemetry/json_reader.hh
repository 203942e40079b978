/**
 * @file
 * Minimal JSON DOM parser, the read-side counterpart of json_writer.hh.
 *
 * The ladm-report tool has to consume the documents our own sinks emit
 * (ladm-stats-v1, ladm-timeline-v1, ladm-simperf-v1) without third-party
 * dependencies, so this is the smallest recursive-descent parser that
 * round-trips them: the six JSON value kinds, doubles for all numbers
 * (our writer never emits integers above 2^53), and object key order
 * preserved for stable report rendering. The grammar is RFC 8259's,
 * strictly: validateJson() (json_writer.hh) is this parser.
 */

#ifndef LADM_TELEMETRY_JSON_READER_HH
#define LADM_TELEMETRY_JSON_READER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ladm
{
namespace telemetry
{

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const
    {
        return isBool() ? bool_ : fallback;
    }
    double asNumber(double fallback = 0.0) const
    {
        return isNumber() ? num_ : fallback;
    }
    const std::string &asString() const { return str_; }
    const std::vector<JsonValue> &items() const { return items_; }
    size_t size() const { return items_.size(); }

    /** Array element; a Null sentinel when out of range or not an array. */
    const JsonValue &at(size_t i) const;
    /** Object member; a Null sentinel when absent or not an object. */
    const JsonValue &get(const std::string &key) const;
    bool has(const std::string &key) const { return !get(key).isNull(); }
    /** Object keys in document order. */
    const std::vector<std::string> &keys() const { return keys_; }

    /** Shorthand: get(key).asNumber(fallback). */
    double
    num(const std::string &key, double fallback = 0.0) const
    {
        return get(key).asNumber(fallback);
    }
    /** Shorthand: get(key).asString(), "" when absent. */
    const std::string &str(const std::string &key) const
    {
        return get(key).asString();
    }

    static JsonValue makeNull() { return JsonValue(); }
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double d);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject();
    void addMember(std::string key, JsonValue v);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_; ///< array elements / object values
    std::vector<std::string> keys_; ///< object keys, parallel to items_
};

/**
 * Parse a complete JSON document.
 * @param err optional; receives a byte offset + message on failure.
 * @return the root value, or nullopt-like Null with @p err set on error.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *err = nullptr);

} // namespace telemetry
} // namespace ladm

#endif // LADM_TELEMETRY_JSON_READER_HH
