/**
 * @file
 * Minimal streaming JSON writer + validator.
 *
 * The exporters and the Chrome-trace emitter need to produce
 * machine-readable output without any third-party dependency; this is the
 * smallest correct subset: objects, arrays, string escaping, and numbers
 * printed with enough precision to round-trip uint64 counters below 2^53.
 * validate() is a strict recursive-descent checker used by the telemetry
 * tests (and available to callers who want to assert their own output).
 */

#ifndef LADM_TELEMETRY_JSON_WRITER_HH
#define LADM_TELEMETRY_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ladm
{
namespace telemetry
{

/** JSON-escape the contents of @p s (quotes not included). */
std::string jsonEscape(const std::string &s);

class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must be followed by a value or begin*(). */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(int v) { return value(static_cast<int64_t>(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    /**
     * Splice @p json into the stream verbatim as one value. The caller
     * vouches that it is well-formed (e.g. pre-rendered trace-event args).
     */
    JsonWriter &raw(const std::string &json);

  private:
    void beforeValue();
    void newline();

    std::ostream &os_;
    int indent_;
    /** Per-nesting-level element count; [0] is the document level. */
    std::vector<size_t> counts_{0};
    bool pendingKey_ = false;
};

/**
 * Strict (RFC 8259) well-formedness check of a complete JSON document:
 * parseJson() with the result discarded.
 * @param err optional; receives a byte offset + message on failure.
 */
bool validateJson(const std::string &text, std::string *err = nullptr);

} // namespace telemetry
} // namespace ladm

#endif // LADM_TELEMETRY_JSON_WRITER_HH
