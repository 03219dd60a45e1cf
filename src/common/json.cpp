#include "common/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/hex.hpp"

namespace ble::json {

namespace {

struct Parser {
    const char* begin;
    const char* p;
    const char* end;
    std::string error;

    [[nodiscard]] std::size_t pos() const noexcept {
        return static_cast<std::size_t>(p - begin);
    }
    void skip_ws() {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
    }
    bool fail(std::string message) {
        if (error.empty()) error = std::move(message);
        return false;
    }

    bool parse_string(std::string& out) {
        if (p >= end || *p != '"') return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            char c = *p++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p >= end) return fail("dangling escape");
            const char esc = *p++;
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (end - p < 4) return fail("short \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = *p++;
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return fail("bad \\u escape");
                        }
                    }
                    // Our writers only emit \u00xx (Latin-1 bytes); decode
                    // larger code points as UTF-8 for robustness.
                    if (code < 0x100) {
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
                default: return fail("unknown escape");
            }
        }
        if (p >= end) return fail("unterminated string");
        ++p;
        return true;
    }

    bool parse_value(Value& out, int depth) {
        if (depth > 64) return fail("nesting too deep");
        skip_ws();
        if (p >= end) return fail("truncated value");
        switch (*p) {
            case '"':
                out.kind = Value::Kind::kString;
                return parse_string(out.str);
            case '{': {
                out.kind = Value::Kind::kObject;
                ++p;
                skip_ws();
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                for (;;) {
                    skip_ws();
                    std::string key;
                    if (!parse_string(key)) return false;
                    skip_ws();
                    if (p >= end || *p != ':') return fail("expected ':'");
                    ++p;
                    Value member;
                    if (!parse_value(member, depth + 1)) return false;
                    out.object.emplace_back(std::move(key), std::move(member));
                    skip_ws();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    if (p < end && *p == '}') {
                        ++p;
                        return true;
                    }
                    return fail("expected ',' or '}'");
                }
            }
            case '[': {
                out.kind = Value::Kind::kArray;
                ++p;
                skip_ws();
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                for (;;) {
                    Value element;
                    if (!parse_value(element, depth + 1)) return false;
                    out.array.push_back(std::move(element));
                    skip_ws();
                    if (p < end && *p == ',') {
                        ++p;
                        continue;
                    }
                    if (p < end && *p == ']') {
                        ++p;
                        return true;
                    }
                    return fail("expected ',' or ']'");
                }
            }
            case 't':
            case 'f': {
                const bool value = *p == 't';
                const char* word = value ? "true" : "false";
                const std::size_t len = std::strlen(word);
                if (static_cast<std::size_t>(end - p) < len ||
                    std::strncmp(p, word, len) != 0) {
                    return fail("bad literal");
                }
                p += len;
                out.kind = Value::Kind::kBool;
                out.boolean = value;
                return true;
            }
            case 'n': {
                if (static_cast<std::size_t>(end - p) < 4 || std::strncmp(p, "null", 4) != 0) {
                    return fail("bad literal");
                }
                p += 4;
                out.kind = Value::Kind::kNull;
                return true;
            }
            default: {
                // Number: keep the raw token verbatim so re-serialization
                // round-trips %.17g doubles and 64-bit integers bit-exactly.
                const char* start = p;
                if (p < end && (*p == '-' || *p == '+')) ++p;
                bool any = false;
                while (p < end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                                   *p == 'E' || *p == '-' || *p == '+')) {
                    ++p;
                    any = true;
                }
                if (!any) return fail("unexpected character");
                out.kind = Value::Kind::kNumber;
                out.raw.assign(start, p);
                return true;
            }
        }
    }
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
    for (const auto& [name, member] : object) {
        if (name == key) return &member;
    }
    return nullptr;
}

std::uint64_t Value::as_u64(std::uint64_t fallback) const noexcept {
    if (kind != Kind::kNumber) return fallback;
    return std::strtoull(raw.c_str(), nullptr, 10);
}

std::int64_t Value::as_i64(std::int64_t fallback) const noexcept {
    if (kind != Kind::kNumber) return fallback;
    return std::strtoll(raw.c_str(), nullptr, 10);
}

double Value::as_double(double fallback) const noexcept {
    if (kind != Kind::kNumber) return fallback;
    return std::strtod(raw.c_str(), nullptr);
}

bool Value::as_bool(bool fallback) const noexcept {
    return kind == Kind::kBool ? boolean : fallback;
}

std::uint64_t Value::u64(std::string_view key, std::uint64_t fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_u64(fallback) : fallback;
}

std::int64_t Value::i64(std::string_view key, std::int64_t fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_i64(fallback) : fallback;
}

double Value::number(std::string_view key, double fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_double(fallback) : fallback;
}

bool Value::boolean_at(std::string_view key, bool fallback) const {
    const Value* v = find(key);
    return v != nullptr ? v->as_bool(fallback) : fallback;
}

std::string Value::string_at(std::string_view key, std::string fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str : std::move(fallback);
}

void Value::dump(std::string& out) const {
    switch (kind) {
        case Kind::kNull: out += "null"; break;
        case Kind::kBool: out += boolean ? "true" : "false"; break;
        case Kind::kNumber: out += raw; break;
        case Kind::kString:
            out += '"';
            append_escaped(out, str);
            out += '"';
            break;
        case Kind::kArray: {
            out += '[';
            bool first = true;
            for (const Value& v : array) {
                if (!first) out += ',';
                first = false;
                v.dump(out);
            }
            out += ']';
            break;
        }
        case Kind::kObject: {
            out += '{';
            bool first = true;
            for (const auto& [name, member] : object) {
                if (!first) out += ',';
                first = false;
                out += '"';
                append_escaped(out, name);
                out += "\":";
                member.dump(out);
            }
            out += '}';
            break;
        }
    }
}

std::string Value::dump() const {
    std::string out;
    dump(out);
    return out;
}

ParseResult parse(std::string_view text) {
    ParseResult result;
    Parser parser{text.data(), text.data(), text.data() + text.size(), {}};
    if (!parser.parse_value(result.value, 0)) {
        result.error = parser.error;
        result.error_pos = parser.pos();
        return result;
    }
    parser.skip_ws();
    if (parser.p != parser.end) {
        result.error = "trailing characters";
        result.error_pos = parser.pos();
        return result;
    }
    result.ok = true;
    return result;
}

bool exact_tenths(double x, std::uint64_t& tenths) noexcept {
    // x = m * 2^e with an integer m < 2^53, so 10x = 10m * 2^e, and 10m fits
    // in 57 bits: the product and its rounding are exact integer steps.
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<int>((bits >> 52) & 0x7FF);
    if (biased >= 1023 + 56) return false;  // |x| >= 2^56, inf or NaN
    const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t scaled = 10 * (biased == 0 ? fraction : fraction | std::uint64_t{1} << 52);
    const int exponent = (biased == 0 ? 1 : biased) - 1075;
    if (exponent >= 0) {
        tenths = scaled << exponent;  // below 10 * 2^56 < 2^60
        return true;
    }
    // Past 57 bits of shift 10|x| < 1/2 rounds to 0, as a 63-bit shift does.
    const int shift = std::min(-exponent, 63);
    const std::uint64_t whole = scaled >> shift;
    const std::uint64_t rest = scaled & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    tenths = whole + (rest > half || (rest == half && (whole & 1) != 0) ? 1 : 0);
    return true;
}

char* write_fixed1(char* p, double value) noexcept {
    std::uint64_t tenths = 0;
    if (!exact_tenths(value, tenths)) {
        return std::to_chars(p, p + kFixed1Chars, value, std::chars_format::fixed, 1).ptr;
    }
    // printf keeps the sign of a value that rounds to zero: -0.04 is "-0.0".
    if (std::signbit(value)) *p++ = '-';
    p = std::to_chars(p, p + kIntChars, tenths / 10).ptr;
    *p++ = '.';
    *p++ = static_cast<char>('0' + tenths % 10);
    return p;
}

char* write_escaped(char* p, std::string_view s) noexcept {
    const char* in = s.data();
    const char* const end = in + s.size();
    while (in != end) {
        const char* const run = in;
        while (in != end && static_cast<unsigned char>(*in) >= 0x20 &&
               static_cast<unsigned char>(*in) < 0x7f && *in != '"' && *in != '\\') {
            ++in;
        }
        std::memcpy(p, run, static_cast<std::size_t>(in - run));
        p += in - run;
        if (in == end) break;
        const auto u = static_cast<unsigned char>(*in++);
        *p++ = '\\';
        switch (u) {
            case '"': *p++ = '"'; break;
            case '\\': *p++ = '\\'; break;
            case '\n': *p++ = 'n'; break;
            case '\t': *p++ = 't'; break;
            case '\r': *p++ = 'r'; break;
            case '\b': *p++ = 'b'; break;
            case '\f': *p++ = 'f'; break;
            default:
                // Remaining control bytes, DEL and non-ASCII: \u00xx reads
                // each byte as Latin-1 and always round-trips.
                std::memcpy(p, "u00", 3);
                p = write_hex(p + 3, BytesView(&u, 1));
        }
    }
    return p;
}

void append_escaped(std::string& out, std::string_view s) {
    const std::size_t at = out.size();
    out.resize(at + kEscapedCharsPerByte * s.size());
    out.resize(static_cast<std::size_t>(write_escaped(out.data() + at, s) - out.data()));
}

std::string escape(std::string_view s) {
    std::string out;
    append_escaped(out, s);
    return out;
}

void append_int(std::string& out, long long value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

void append_fixed1(std::string& out, double value) {
    char buf[kFixed1Chars];
    out.append(buf, write_fixed1(buf, value));
}

void append_key(std::string& out, std::string_view key) {
    out += ",\"";
    out += key;
    out += "\":";
}

void append_int(std::string& out, std::string_view key, long long value) {
    append_key(out, key);
    append_int(out, value);
}

void append_u64(std::string& out, std::string_view key, std::uint64_t value) {
    append_key(out, key);
    append_u64(out, value);
}

void append_fixed1(std::string& out, std::string_view key, double value) {
    append_key(out, key);
    append_fixed1(out, value);
}

void append_bool(std::string& out, std::string_view key, bool value) {
    append_key(out, key);
    out += value ? "true" : "false";
}

void append_str(std::string& out, std::string_view key, std::string_view value) {
    append_key(out, key);
    out += '"';
    append_escaped(out, value);
    out += '"';
}

}  // namespace ble::json
