#include "telemetry/json_reader.hh"

#include <cctype>
#include <cstdlib>

namespace ladm
{
namespace telemetry
{

namespace
{

const JsonValue kNullSentinel;

struct Parser
{
    const std::string &text;
    size_t pos = 0;
    std::string err{};
    /** Defense against adversarial nesting blowing the parse stack. */
    int depth = 0;
    static constexpr int kMaxDepth = 200;

    bool
    fail(const std::string &msg)
    {
        if (err.empty())
            err = "offset " + std::to_string(pos) + ": " + msg;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool
    parseLiteral(const char *lit)
    {
        const size_t n = std::char_traits<char>::length(lit);
        if (text.compare(pos, n, lit) != 0)
            return fail(std::string("expected '") + lit + "'");
        pos += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size())
                    return fail("truncated escape");
                const char e = text[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                      if (pos + 4 > text.size())
                          return fail("truncated \\u escape");
                      unsigned code = 0;
                      for (int i = 0; i < 4; ++i) {
                          const char h = text[pos + i];
                          code <<= 4;
                          if (h >= '0' && h <= '9')
                              code |= static_cast<unsigned>(h - '0');
                          else if (h >= 'a' && h <= 'f')
                              code |= static_cast<unsigned>(h - 'a' + 10);
                          else if (h >= 'A' && h <= 'F')
                              code |= static_cast<unsigned>(h - 'A' + 10);
                          else
                              return fail("bad \\u escape digit");
                      }
                      pos += 4;
                      // UTF-8 encode the BMP code point (our writer never
                      // emits surrogate pairs).
                      if (code < 0x80) {
                          out += static_cast<char>(code);
                      } else if (code < 0x800) {
                          out += static_cast<char>(0xC0 | (code >> 6));
                          out += static_cast<char>(0x80 | (code & 0x3F));
                      } else {
                          out += static_cast<char>(0xE0 | (code >> 12));
                          out += static_cast<char>(0x80 |
                                                   ((code >> 6) & 0x3F));
                          out += static_cast<char>(0x80 | (code & 0x3F));
                      }
                      break;
                  }
                  default: return fail("unknown escape");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JsonValue &out)
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size()) {
            --depth;
            return fail("unexpected end of document");
        }
        bool ok = false;
        const char c = text[pos];
        if (c == '{') {
            ok = parseObject(out);
        } else if (c == '[') {
            ok = parseArray(out);
        } else if (c == '"') {
            std::string s;
            ok = parseString(s);
            if (ok)
                out = JsonValue::makeString(std::move(s));
        } else if (c == 't') {
            ok = parseLiteral("true");
            if (ok)
                out = JsonValue::makeBool(true);
        } else if (c == 'f') {
            ok = parseLiteral("false");
            if (ok)
                out = JsonValue::makeBool(false);
        } else if (c == 'n') {
            ok = parseLiteral("null");
            if (ok)
                out = JsonValue::makeNull();
        } else {
            ok = parseNumber(out);
        }
        --depth;
        return ok;
    }

    bool
    at(char c) const
    {
        return pos < text.size() && text[pos] == c;
    }

    /** Consume a run of digits; false when there is none. */
    bool
    digits()
    {
        const size_t start = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        return pos > start;
    }

    /** RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    parseNumber(JsonValue &out)
    {
        const size_t start = pos;
        if (at('-'))
            ++pos;
        if (at('0')) {
            ++pos;
            if (digits())
                return fail("leading zero in number");
        } else if (!digits()) {
            return fail(pos == start ? "expected value"
                                     : "expected digit after '-'");
        }
        if (at('.')) {
            ++pos;
            if (!digits())
                return fail("expected digit after '.'");
        }
        if (at('e') || at('E')) {
            ++pos;
            if (at('+') || at('-'))
                ++pos;
            if (!digits())
                return fail("expected digit in exponent");
        }
        out = JsonValue::makeNumber(
            std::strtod(text.substr(start, pos - start).c_str(), nullptr));
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos; // '['
        std::vector<JsonValue> items;
        skipWs();
        if (consume(']')) {
            out = JsonValue::makeArray(std::move(items));
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            items.push_back(std::move(v));
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return fail("expected ',' or ']' in array");
        }
        out = JsonValue::makeArray(std::move(items));
        return true;
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos; // '{'
        out = JsonValue::makeObject();
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.addMember(std::move(key), std::move(v));
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail("expected ',' or '}' in object");
        }
        return true;
    }
};

} // namespace

const JsonValue &
JsonValue::at(size_t i) const
{
    if (kind_ != Kind::Array || i >= items_.size())
        return kNullSentinel;
    return items_[i];
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return kNullSentinel;
    for (size_t i = 0; i < keys_.size(); ++i) {
        if (keys_[i] == key)
            return items_[i];
    }
    return kNullSentinel;
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

void
JsonValue::addMember(std::string key, JsonValue v)
{
    keys_.push_back(std::move(key));
    items_.push_back(std::move(v));
}

bool
parseJson(const std::string &text, JsonValue &out, std::string *err)
{
    Parser p{text};
    if (!p.parseValue(out)) {
        if (err)
            *err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (err) {
            *err = "offset " + std::to_string(p.pos) +
                   ": trailing content after document";
        }
        return false;
    }
    return true;
}

} // namespace telemetry
} // namespace ladm
