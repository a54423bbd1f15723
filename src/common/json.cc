#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace vespera::json {

const Value *
Value::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

const Value *
Value::findPath(const std::string &dotted) const
{
    // Keys may themselves contain dots (vespera-metrics counter names
    // like "mme.flops"), so prefer the literal key, then try each
    // split point left to right.
    if (const Value *direct = find(dotted))
        return direct;
    for (std::size_t dot = dotted.find('.'); dot != std::string::npos;
         dot = dotted.find('.', dot + 1)) {
        if (const Value *head = find(dotted.substr(0, dot))) {
            if (const Value *rest =
                    head->findPath(dotted.substr(dot + 1))) {
                return rest;
            }
        }
    }
    return nullptr;
}

Value
Value::makeNull()
{
    return Value();
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double d)
{
    Value v;
    v.type_ = Type::Number;
    v.number_ = d;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.type_ = Type::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.type_ = Type::Array;
    v.array_ = std::move(items);
    return v;
}

Value
Value::makeObject(std::map<std::string, Value> members)
{
    Value v;
    v.type_ = Type::Object;
    v.object_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(Value &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    static constexpr int maxDepth_ = 64;

    bool
    fail(const char *what)
    {
        if (error_)
            *error_ = strfmt("%s at byte %zu", what, pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            pos_++;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return fail("expected string");
        pos_++;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("bad escape");
            char e = text_[pos_++];
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
                if (pos_ + 4 > text_.size())
                    return fail("bad \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; i++) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u digit");
                }
                // Basic-plane code points only; encode as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        pos_++; // Closing quote.
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        // Bounded recursion: a hostile document cannot overflow the
        // stack, and the message names the depth it reached.
        if (depth > maxDepth_) {
            return fail(strfmt("nesting depth %d exceeds the limit of %d",
                               depth, maxDepth_)
                            .c_str());
        }
        if (pos_ >= text_.size())
            return fail("unexpected end");
        const char c = text_[pos_];
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = Value::makeNull();
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = Value::makeBool(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = Value::makeBool(false);
            return true;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Value::makeString(std::move(s));
            return true;
        }
        if (c == '[') {
            pos_++;
            std::vector<Value> items;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                pos_++;
                out = Value::makeArray(std::move(items));
                return true;
            }
            while (true) {
                Value v;
                skipWs();
                if (!parseValue(v, depth + 1))
                    return false;
                items.push_back(std::move(v));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    pos_++;
                    continue;
                }
                if (text_[pos_] == ']') {
                    pos_++;
                    out = Value::makeArray(std::move(items));
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            pos_++;
            std::map<std::string, Value> members;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                pos_++;
                out = Value::makeObject(std::move(members));
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (pos_ >= text_.size() || !parseString(key))
                    return fail("expected object key");
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                pos_++;
                skipWs();
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                members[key] = std::move(v);
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    pos_++;
                    continue;
                }
                if (text_[pos_] == '}') {
                    pos_++;
                    out = Value::makeObject(std::move(members));
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        // Number.
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double d = std::strtod(start, &end);
        if (end == start || !std::isfinite(d))
            return fail("bad number");
        pos_ += static_cast<std::size_t>(end - start);
        out = Value::makeNumber(d);
        return true;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

void
serializeString(const std::string &s, std::string &out)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

void
serializeValue(const Value &v, std::string &out)
{
    switch (v.type()) {
      case Value::Type::Null:
        out += "null";
        return;
      case Value::Type::Bool:
        out += v.boolean() ? "true" : "false";
        return;
      case Value::Type::Number:
        out += strfmt("%.17g", v.number());
        return;
      case Value::Type::String:
        serializeString(v.str(), out);
        return;
      case Value::Type::Array: {
        out += '[';
        bool first = true;
        for (const Value &item : v.array()) {
            if (!first)
                out += ',';
            first = false;
            serializeValue(item, out);
        }
        out += ']';
        return;
      }
      case Value::Type::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, member] : v.object()) {
            if (!first)
                out += ',';
            first = false;
            serializeString(key, out);
            out += ':';
            serializeValue(member, out);
        }
        out += '}';
        return;
      }
    }
}

} // namespace

bool
parse(const std::string &text, Value &out, std::string *error)
{
    return Parser(text, error).run(out);
}

std::string
serialize(const Value &v)
{
    std::string out;
    serializeValue(v, out);
    return out;
}

} // namespace vespera::json
