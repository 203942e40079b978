#include "telemetry/json_writer.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "telemetry/json_reader.hh"

namespace ladm
{
namespace telemetry
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{
}

void
JsonWriter::newline()
{
    if (indent_ <= 0)
        return;
    os_ << '\n';
    const int depth = static_cast<int>(counts_.size()) - 1;
    for (int i = 0; i < depth * indent_; ++i)
        os_ << ' ';
}

void
JsonWriter::beforeValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (counts_.back() > 0)
        os_ << ',';
    if (counts_.size() > 1)
        newline();
    ++counts_.back();
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    os_ << '{';
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    ladm_assert(counts_.size() > 1, "endObject() without beginObject()");
    const bool had = counts_.back() > 0;
    counts_.pop_back();
    if (had)
        newline();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    os_ << '[';
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    ladm_assert(counts_.size() > 1, "endArray() without beginArray()");
    const bool had = counts_.back() > 0;
    counts_.pop_back();
    if (had)
        newline();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    ladm_assert(!pendingKey_, "two key() calls without a value");
    if (counts_.back() > 0)
        os_ << ',';
    newline();
    ++counts_.back();
    os_ << '"' << jsonEscape(k) << "\":";
    if (indent_ > 0)
        os_ << ' ';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN; null is the conventional substitute.
        os_ << "null";
        return *this;
    }
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        os_ << static_cast<int64_t>(v);
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int64_t v)
{
    beforeValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beforeValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    beforeValue();
    os_ << '"' << jsonEscape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    beforeValue();
    os_ << json;
    return *this;
}

bool
validateJson(const std::string &text, std::string *err)
{
    JsonValue doc;
    return parseJson(text, doc, err);
}

} // namespace telemetry
} // namespace ladm
