#include "config/options.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/sim_error.hh"

namespace ladm
{
namespace opt
{

namespace
{

/** Shared options given on the command line, as written. */
std::map<const Option *, std::string> g_flags;

/** A value's text and the flag or variable it came from. */
using Given = std::optional<std::pair<std::string, const char *>>;

[[noreturn]] void
reject(const std::string &source, const std::string &text,
       const std::string &want)
{
    throw SimError(SimError::Kind::Config,
                   source + " " + want + ", got '" + text + "'",
                   {{source, text, want,
                     "give a valid value, or drop it for the default",
                     ErrCode::BadConfig}});
}

uint64_t
parseWhole(const std::string &source, const std::string &text, double min,
           uint64_t max)
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || stop != end ||
        static_cast<double>(v) < min) {
        reject(source, text,
               detail::format("must be a whole number ",
                              min == 1 ? "> " : ">= ", min == 1 ? 0 : min));
    }
    if (v > max)
        reject(source, text, detail::format("must be a whole number <= ", max));
    return v;
}

double
parseNumber(const std::string &source, const std::string &text, double min)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(v) || !(v > min)) {
        reject(source, text,
               min == kNoMin ? "must be a number"
                             : detail::format("must be a number > ", min));
    }
    return v;
}

bool
parseSwitch(const std::string &source, const std::string &text)
{
    if (text.empty() || text == "0" || text == "false" || text == "off")
        return false;
    if (text == "1" || text == "true" || text == "on")
        return true;
    reject(source, text, "must be on or off (1/0, true/false, on/off)");
}

/** Throws unless @p text is a valid value of @p o's kind. */
void
check(const Option &o, const std::string &source, const std::string &text)
{
    if (o.kind == Kind::Whole)
        parseWhole(source, text, o.min, o.max);
    else if (o.kind == Kind::Number)
        parseNumber(source, text, o.min);
    else if (o.kind == Kind::Switch)
        parseSwitch(source, text);
}

/** Validate @p text and land it in @p o's target (or the flag table). */
void
store(const Option &o, const std::string &source, const std::string &text)
{
    std::visit(
        [&](auto dst) {
            using P = decltype(dst);
            if constexpr (std::is_same_v<P, std::monostate>) {
                check(o, source, text);
                g_flags[&o] = text;
            } else if constexpr (std::is_same_v<P, std::string *>) {
                *dst = text;
            } else if constexpr (std::is_same_v<P, double *>) {
                *dst = parseNumber(source, text, o.min);
            } else {
                using T = std::remove_pointer_t<P>;
                const uint64_t cap = std::numeric_limits<T>::max();
                *dst = static_cast<T>(
                    parseWhole(source, text, o.min, std::min(o.max, cap)));
            }
        },
        o.target);
}

size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diag = std::exchange(row[0], i);
        for (size_t j = 1; j <= b.size(); ++j)
            diag = std::exchange(row[j],
                                 std::min({row[j] + 1, row[j - 1] + 1,
                                           diag + (a[i - 1] != b[j - 1])}));
    }
    return row[b.size()];
}

[[noreturn]] void
unknownFlag(const std::string &name,
            const std::vector<const Option *> &known)
{
    const Option *best = nullptr;
    size_t best_d = name.size() / 3 + 1; // suggest only near misses
    for (const Option *o : known) {
        if (const size_t d = editDistance(name, o->flag); d < best_d) {
            best = o;
            best_d = d;
        }
    }
    throw SimError(SimError::Kind::Config,
                   "unknown flag '" + name + "' (" +
                       (best ? std::string("did you mean ") + best->flag + "?"
                             : "--help lists every option") +
                       ")");
}

void
printHelp(const char *argv0, const char *usage,
          const std::vector<const Option *> &known)
{
    const char *slash = std::strrchr(argv0, '/');
    std::printf("usage: %s %s\n\noptions (flag, or the variable beside it; "
                "the flag wins):\n",
                slash ? slash + 1 : argv0, usage);
    for (const Option *o : known) {
        const char *arg = o->kind == Kind::Switch   ? ""
                          : o->bare                 ? "[=VALUE]"
                          : o->kind == Kind::String ? " VALUE"
                                                    : " N";
        std::printf("  %-28s %-26s %s\n", (std::string(o->flag) + arg).c_str(),
                    o->env ? o->env : "", o->help);
    }
    std::printf("\nUnknown flags are errors.\n");
    std::fflush(stdout);
}

/** The command-line value of @p o, else its non-empty variable. */
Given
lookup(const Option &o)
{
    if (const auto it = g_flags.find(&o); it != g_flags.end())
        return std::pair(it->second, o.flag);
    const char *v = o.env ? std::getenv(o.env) : nullptr;
    return v && *v ? Given({v, o.env}) : std::nullopt;
}

} // namespace

void
parse(int &argc, char **argv, unsigned groups,
      const std::vector<Option> &local, const char *usage)
{
    std::vector<const Option *> known;
    for (const Option &o : local)
        known.push_back(&o);
    for (const Option *o : kShared)
        if (o->group & groups)
            known.push_back(o);

    int w = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0], usage, known);
            std::exit(0);
        }
        if (arg.size() < 2 || arg[0] != '-') {
            argv[w++] = argv[i];
            continue;
        }
        const size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto hit =
            std::find_if(known.begin(), known.end(),
                         [&](const Option *o) { return name == o->flag; });
        if (hit == known.end())
            unknownFlag(name, known);
        const Option &o = **hit;
        if (eq != std::string::npos)
            store(o, name, arg.substr(eq + 1));
        else if (o.kind == Kind::Switch || o.bare)
            store(o, name, o.bare ? o.bare : "1");
        else if (i + 1 < argc)
            store(o, name, argv[++i]);
        else
            throw SimError(SimError::Kind::Config, name + " expects a value");
    }
    argc = w;
    argv[argc] = nullptr;

    // Variables are read where they are used; check them all now so a
    // bad one fails here, before any work.
    for (const Option *o : known)
        if (const Given g = lookup(*o); g && g->second == o->env)
            check(*o, g->second, g->first);
}

std::string
str(const Option &o)
{
    const Given g = lookup(o);
    return g ? g->first : "";
}

bool
on(const Option &o)
{
    const Given g = lookup(o);
    return g && parseSwitch(g->second, g->first);
}

double
number(const Option &o, double dflt)
{
    const Given g = lookup(o);
    return g ? parseNumber(g->second, g->first, o.min) : dflt;
}

uint64_t
whole(const Option &o, uint64_t dflt)
{
    const Given g = lookup(o);
    return g ? parseWhole(g->second, g->first, o.min, o.max) : dflt;
}

void
resetForTest()
{
    g_flags.clear();
}

} // namespace opt
} // namespace ladm
