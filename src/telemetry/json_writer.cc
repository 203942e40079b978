#include "telemetry/json_writer.hh"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

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

// --- validator --------------------------------------------------------------

namespace
{

struct Parser
{
    const std::string &s;
    size_t pos = 0;
    std::string err{};

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = "at byte " + std::to_string(pos) + ": " + msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *lit)
    {
        for (const char *p = lit; *p; ++p, ++pos) {
            if (pos >= s.size() || s[pos] != *p)
                return fail(std::string("expected '") + lit + "'");
        }
        return true;
    }

    bool
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control char in string");
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return fail("dangling escape");
                const char e = s[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[pos])))
                            return fail("bad \\u escape");
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return fail("bad escape");
                }
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    number()
    {
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        const size_t istart = pos;
        while (pos < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[pos])))
            ++pos;
        if (pos == istart)
            return fail("expected number");
        if (s[istart] == '0' && pos > istart + 1)
            return fail("leading zero");
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            const size_t dstart = pos;
            while (pos < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[pos])))
                ++pos;
            if (pos == dstart)
                return fail("bad exponent");
        }
        return true;
    }

    bool
    value(int depth)
    {
        if (depth > 256)
            return fail("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        const char c = s[pos];
        if (c == '{') {
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (pos >= s.size() || s[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            skipWs();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                if (!value(depth + 1))
                    return false;
                skipWs();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }
};

} // namespace

bool
validateJson(const std::string &text, std::string *err)
{
    Parser p{text};
    if (!p.value(0)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err)
            *err = "trailing garbage at byte " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace telemetry
} // namespace ladm
