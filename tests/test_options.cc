/**
 * @file
 * The option table (config/options.hh): both flag spellings and the
 * variable through one validator, the switch rule for every switch,
 * strict numbers for every numeric option, unknown-flag suggestions,
 * and a seeded mutation fuzz of parse() and the variable path.
 */

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "config/options.hh"
#include "mutate.hh"

namespace ladm
{
namespace
{

constexpr unsigned kAllGroups = opt::Telemetry | opt::Simulator |
                                opt::Sweep | opt::Bench;

/** Sets (or unsets, for null) a variable, restoring it on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

class OptionsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        opt::resetForTest();
        // The fixture owns the table's variables: start from none set.
        for (const opt::Option *o : opt::kShared)
            saved_.emplace_back(std::make_unique<ScopedEnv>(o->env, nullptr));
    }
    void TearDown() override { opt::resetForTest(); }

    /** parse() over "prog" + @p args; returns what it left behind. */
    std::vector<std::string>
    parse(std::vector<std::string> args, unsigned groups = kAllGroups,
          const std::vector<opt::Option> &local = {})
    {
        args.insert(args.begin(), "prog");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int argc = static_cast<int>(args.size());
        opt::parse(argc, argv.data(), groups, local);
        EXPECT_EQ(argv[argc], nullptr);
        return {argv.begin() + 1, argv.begin() + argc};
    }

    /** The message of the SimError(Config) @p f throws, or "". */
    template <class F>
    static std::string
    configError(F &&f)
    {
        try {
            f();
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Config);
            return e.what();
        }
        return "";
    }

  private:
    std::vector<std::unique_ptr<ScopedEnv>> saved_;
};

bool
contains(const std::string &s, const std::string &part)
{
    return s.find(part) != std::string::npos;
}

TEST_F(OptionsTest, TableDeclaresEveryVariableOnce)
{
    std::vector<std::string> envs, flags;
    for (const opt::Option *o : opt::kShared) {
        ASSERT_NE(o->env, nullptr);
        ASSERT_NE(o->flag, nullptr);
        EXPECT_EQ(std::string(o->env).rfind("LADM_", 0), 0u) << o->env;
        EXPECT_NE(o->group, 0u) << o->env;
        envs.push_back(o->env);
        flags.push_back(o->flag);
    }
    EXPECT_EQ(envs.size(), 25u);
    std::sort(envs.begin(), envs.end());
    std::sort(flags.begin(), flags.end());
    EXPECT_EQ(std::unique(envs.begin(), envs.end()), envs.end());
    EXPECT_EQ(std::unique(flags.begin(), flags.end()), flags.end());
}

TEST_F(OptionsTest, BothFlagSpellingsStripAndLeavePositionals)
{
    const auto rest =
        parse({"first", "--stats-json", "s.json", "mid", "--trace-sample=8",
               "--stats-text", "-", "--check", "last"});
    EXPECT_EQ(rest, (std::vector<std::string>{"first", "mid", "last"}));
    EXPECT_EQ(opt::str(opt::kStatsJson), "s.json");
    EXPECT_EQ(opt::str(opt::kStatsText), "-");
    EXPECT_EQ(opt::whole(opt::kTraceSample, 64), 8u);
    EXPECT_TRUE(opt::on(opt::kCheck));
    EXPECT_FALSE(opt::on(opt::kProfile));
    EXPECT_EQ(opt::whole(opt::kTimelineWindow, 10'000), 10'000u);
}

TEST_F(OptionsTest, FlagWinsOverVariableAndLastRepeatWins)
{
    ScopedEnv env("LADM_BENCH_JOBS", "7");
    EXPECT_EQ(opt::whole(opt::kJobs, 0), 7u);
    parse({"--jobs", "3", "--jobs=5"});
    EXPECT_EQ(opt::whole(opt::kJobs, 0), 5u);
}

TEST_F(OptionsTest, BareValueOptionTakesOnlyTheEqualsForm)
{
    EXPECT_EQ(parse({"--resume-sweep", "pos"}),
              std::vector<std::string>{"pos"});
    EXPECT_EQ(opt::str(opt::kResumeSweep), "ladm.sweep.jnl");
    parse({"--resume-sweep=mine.jnl"});
    EXPECT_EQ(opt::str(opt::kResumeSweep), "mine.jnl");
}

TEST_F(OptionsTest, LocalRecordsWriteTheirTargets)
{
    int workers = 4;
    uint32_t retry = 20;
    uint64_t queue = 64;
    double rate = -1.0;
    std::string listen = "unix:x";
    const std::vector<opt::Option> local = {
        {.flag = "--workers", .kind = opt::Kind::Whole, .target = &workers},
        {.flag = "--retry-after-ms", .kind = opt::Kind::Whole,
         .target = &retry, .min = 0},
        {.flag = "--queue", .kind = opt::Kind::Whole, .target = &queue},
        {.flag = "--rate", .kind = opt::Kind::Number, .target = &rate,
         .min = opt::kNoMin},
        {.flag = "-o", .target = &listen},
    };
    parse({"--workers=9", "--retry-after-ms", "0", "--queue", "5",
           "--rate", "-0.5", "-o", "tcp:h:1"},
          0, local);
    EXPECT_EQ(workers, 9);
    EXPECT_EQ(retry, 0u);
    EXPECT_EQ(queue, 5u);
    EXPECT_EQ(rate, -0.5);
    EXPECT_EQ(listen, "tcp:h:1");

    for (const char *bad : {"abc", "-5", "0", "", "4x", "2147483648"}) {
        SCOPED_TRACE(bad);
        const std::string msg = configError(
            [&] { parse({"--workers", bad}, 0, local); });
        EXPECT_TRUE(contains(msg, "--workers must be a whole number"))
            << msg;
    }
    EXPECT_TRUE(contains(
        configError([&] { parse({"--retry-after-ms=4294967296"}, 0, local); }),
        "<= 4294967295"));
    // Shared flags are unknown to a binary that does not take them.
    EXPECT_TRUE(contains(configError([&] { parse({"--check"}, 0, local); }),
                         "unknown flag '--check'"));
}

TEST_F(OptionsTest, UnknownFlagsSuggestTheNearestName)
{
    const std::string near =
        configError([&] { parse({"--shard", "4"}); });
    EXPECT_TRUE(contains(near, "unknown flag '--shard'")) << near;
    EXPECT_TRUE(contains(near, "did you mean --shards")) << near;
    EXPECT_TRUE(contains(configError([&] { parse({"--stats-jsn=x"}); }),
                         "did you mean --stats-json"));
    const std::string far = configError([&] { parse({"--no-such-flag"}); });
    EXPECT_TRUE(contains(far, "unknown flag")) << far;
    EXPECT_FALSE(contains(far, "did you mean")) << far;
    EXPECT_TRUE(contains(configError([&] { parse({"-x"}); }),
                         "unknown flag '-x'"));
    // A lone "-" is a positional (stdin / stdout by convention).
    EXPECT_EQ(parse({"-"}), std::vector<std::string>{"-"});
}

TEST_F(OptionsTest, MissingValueIsAnError)
{
    EXPECT_TRUE(contains(configError([&] { parse({"--stats-json"}); }),
                         "--stats-json expects a value"));
}

TEST_F(OptionsTest, EverySwitchFollowsOneRule)
{
    int switches = 0;
    for (const opt::Option *o : opt::kShared) {
        if (o->kind != opt::Kind::Switch)
            continue;
        ++switches;
        SCOPED_TRACE(o->env);
        EXPECT_FALSE(opt::on(*o)); // unset
        for (const char *off : {"", "0", "false", "off"}) {
            ScopedEnv env(o->env, off);
            EXPECT_FALSE(opt::on(*o)) << off;
            opt::resetForTest();
            parse({std::string(o->flag) + "=" + off});
            EXPECT_FALSE(opt::on(*o)) << off;
            opt::resetForTest();
        }
        for (const char *on : {"1", "true", "on"}) {
            ScopedEnv env(o->env, on);
            EXPECT_TRUE(opt::on(*o)) << on;
            opt::resetForTest();
            parse({std::string(o->flag) + "=" + on});
            EXPECT_TRUE(opt::on(*o)) << on;
            opt::resetForTest();
        }
        parse({o->flag}); // the bare flag is on
        EXPECT_TRUE(opt::on(*o));
        opt::resetForTest();
        for (const char *bad : {"yes", "2", "OFF ", "maybe"}) {
            ScopedEnv env(o->env, bad);
            EXPECT_TRUE(contains(configError([&] { opt::on(*o); }),
                                 std::string(o->env) + " must be on or off"))
                << bad;
            // parse() checks the variables of the groups it accepts.
            EXPECT_TRUE(contains(configError([&] { parse({}); }), o->env))
                << bad;
            opt::resetForTest();
            const std::string flag = std::string(o->flag) + "=" + bad;
            EXPECT_TRUE(contains(configError([&] { parse({flag}); }),
                                 std::string(o->flag) + " must be on or off"))
                << bad;
        }
    }
    EXPECT_EQ(switches, 5);
}

TEST_F(OptionsTest, EveryNumericOptionIsStrictInAllThreeSpellings)
{
    int numeric = 0;
    for (const opt::Option *o : opt::kShared) {
        if (o->kind != opt::Kind::Whole && o->kind != opt::Kind::Number)
            continue;
        ++numeric;
        SCOPED_TRACE(o->flag);
        const bool whole = o->kind == opt::Kind::Whole;
        const std::string good = whole ? "7" : "0.5";
        auto value = [&] {
            return whole ? static_cast<double>(opt::whole(*o, 0))
                         : opt::number(*o, 0.0);
        };
        const double want = whole ? 7.0 : 0.5;

        parse({o->flag, good});
        EXPECT_EQ(value(), want);
        opt::resetForTest();
        parse({std::string(o->flag) + "=" + good});
        EXPECT_EQ(value(), want);
        opt::resetForTest();
        {
            ScopedEnv env(o->env, good.c_str());
            EXPECT_EQ(value(), want);
            parse({});
        }

        std::vector<std::string> bad = {"abc", "12abc", "-5", "1e999",
                                        " 3", "0x"};
        if (whole) {
            bad.push_back("2.5");
            bad.push_back("99999999999999999999999"); // > 2^64
            if (o->min > 0) // just under the bound
                bad.push_back(std::to_string(static_cast<int>(o->min) - 1));
            if (o->max < UINT64_MAX) // just over the cap
                bad.push_back(std::to_string(o->max + 1));
        } else {
            bad.push_back("0");
            bad.push_back("nan");
        }
        for (const std::string &b : bad) {
            SCOPED_TRACE(b);
            const std::string flag = std::string(o->flag) + " must be";
            EXPECT_TRUE(contains(configError([&] { parse({o->flag, b}); }),
                                 flag));
            EXPECT_TRUE(contains(
                configError(
                    [&] { parse({std::string(o->flag) + "=" + b}); }),
                flag));
            ScopedEnv env(o->env, b.c_str());
            const std::string var = std::string(o->env) + " must be";
            EXPECT_TRUE(contains(configError(value), var));
            EXPECT_TRUE(contains(configError([&] { parse({}); }), var));
        }
        // The flag form has no "unset": an empty value is rejected too.
        EXPECT_TRUE(contains(
            configError([&] { parse({std::string(o->flag) + "="}); }),
            std::string(o->flag) + " must be"));
    }
    EXPECT_EQ(numeric, 10);
}

TEST_F(OptionsTest, FormerlySilentValuesNowFailWithTheirSource)
{
    struct Case
    {
        std::vector<std::string> args;
        const char *env;
        const char *value;
        const char *want;
    };
    const Case cases[] = {
        {{"--checkpoint-every", "abc"}, nullptr, nullptr,
         "--checkpoint-every must be a whole number >= 0, got 'abc'"},
        {{}, "LADM_CHECKPOINT_EVERY", "10x",
         "LADM_CHECKPOINT_EVERY must be a whole number >= 0, got '10x'"},
        {{}, "LADM_CHECK_WATCHDOG", "abc",
         "LADM_CHECK_WATCHDOG must be a whole number > 0, got 'abc'"},
        {{}, "LADM_TRACE_SAMPLE", "0",
         "LADM_TRACE_SAMPLE must be a whole number > 0, got '0'"},
        {{"--trace-sample", "12abc"}, nullptr, nullptr,
         "--trace-sample must be a whole number > 0, got '12abc'"},
        {{}, "LADM_CHECK", "off-ish", "LADM_CHECK must be on or off"},
        {{}, "LADM_PROFILE", "no", "LADM_PROFILE must be on or off"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.want);
        std::optional<ScopedEnv> env;
        if (c.env)
            env.emplace(c.env, c.value);
        EXPECT_TRUE(contains(configError([&] { parse(c.args); }), c.want));
        opt::resetForTest();
    }
    // The CI spellings keep their meaning.
    ScopedEnv zero("LADM_CHECK", "0");
    EXPECT_FALSE(opt::on(opt::kCheck));
    ScopedEnv one("LADM_CHECK", "1");
    EXPECT_TRUE(opt::on(opt::kCheck));
}

/**
 * Seeded mutants of valid command lines through parse() and of valid
 * values through the variable path: the only allowed outcomes are
 * success and SimError.
 */
TEST_F(OptionsTest, SeededMutantsOnlySucceedOrRaiseSimError)
{
    const std::vector<std::vector<std::string>> seeds = {
        {"--stats-json", "s.json", "--trace-sample=8", "pos"},
        {"--jobs", "4", "--bench-scale=0.25", "--continue-on-error"},
        {"--checkpoint-every", "1000", "--checkpoint-out=c.ckpt",
         "--resume", "c.ckpt"},
        {"--timeline-out=t.json", "--timeline-window", "500",
         "--timeline-max-windows=16", "--obs-hot-pages", "7",
         "--obs-attribution", "--obs-heatmap"},
        {"--shards", "4", "--check", "--check-watchdog=1000", "--profile",
         "--resume-sweep"},
        {"--workers", "2", "--queue=8", "--rate", "0.5", "-o", "out.md"},
    };
    const char *hostile[] = {"",
                             "-1",
                             "-9223372036854775808",
                             "18446744073709551615",
                             "18446744073709551616",
                             "1e308",
                             "nan",
                             "=",
                             "==",
                             "--",
                             "-"};
    int workers = 0;
    uint64_t queue = 0;
    double rate = 0.0;
    std::string out;
    const std::vector<opt::Option> local = {
        {.flag = "--workers", .kind = opt::Kind::Whole, .target = &workers},
        {.flag = "--queue", .kind = opt::Kind::Whole, .target = &queue},
        {.flag = "--rate", .kind = opt::Kind::Number, .target = &rate,
         .min = opt::kNoMin},
        {.flag = "-o", .target = &out},
    };

    Rng rng(20261017);
    int mutants = 0, accepted = 0;
    for (const auto &seed : seeds) {
        for (int i = 0; i < 300; ++i, ++mutants) {
            std::vector<std::string> m = seed;
            const size_t at = rng.nextBounded(m.size());
            switch (rng.nextBounded(6)) {
            case 0:
                mutate::flipBits(rng, m[at], 0, 3);
                break;
            case 1:
                mutate::truncate(rng, m[at]);
                break;
            case 2: { // split "--flag=value", or join "--flag value"
                const size_t eq = m[at].find('=');
                if (eq != std::string::npos) {
                    const std::string value = m[at].substr(eq + 1);
                    m[at].resize(eq);
                    m.insert(m.begin() + at + 1, value);
                } else if (at + 1 < m.size()) {
                    m[at] += "=" + m[at + 1];
                    m.erase(m.begin() + at + 1);
                }
                break;
            }
            case 3: { // a hostile value after "=" or in place
                const char *h = hostile[rng.nextBounded(std::size(hostile))];
                const size_t eq = m[at].find('=');
                m[at] = eq != std::string::npos ? m[at].substr(0, eq + 1) + h
                                                : std::string(h);
                break;
            }
            case 4: { // repeat the tail, flags and values alike
                const std::vector<std::string> tail(m.begin() + at, m.end());
                m.insert(m.end(), tail.begin(), tail.end());
                break;
            }
            default: // cut the command line short
                m.resize(at);
                break;
            }
            bool help = false;
            for (const std::string &a : m)
                help |= a == "--help" || a == "-h"; // prints and exits
            if (help)
                continue;
            try {
                parse(m, kAllGroups, local);
                ++accepted;
                // What parse() accepted, the readers accept too.
                opt::str(opt::kStatsJson);
                opt::whole(opt::kTraceSample, 64);
                opt::number(opt::kBenchScale, 1.0);
                opt::on(opt::kCheck);
            } catch (const SimError &) {
            }
            opt::resetForTest();
            if (HasFailure())
                FAIL() << "mutant " << i << " of seed " << seed[0];
        }
    }

    // The variable path: mutants of valid values under every variable.
    for (const opt::Option *o : opt::kShared) {
        const std::string valid =
            o->kind == opt::Kind::Switch   ? "true"
            : o->kind == opt::Kind::Number ? "0.25"
            : o->kind == opt::Kind::Whole  ? "4096"
                                           : "path/to/file.json";
        for (int i = 0; i < 40; ++i, ++mutants) {
            std::string v = valid;
            if (rng.nextBounded(2))
                mutate::flipBits(rng, v, 0, 2);
            else
                v = hostile[rng.nextBounded(std::size(hostile))];
            ScopedEnv env(o->env, v.c_str());
            try {
                parse({}, o->group);
                ++accepted;
                opt::str(*o);
                if (o->kind == opt::Kind::Whole)
                    opt::whole(*o, 0);
                else if (o->kind == opt::Kind::Number)
                    opt::number(*o, 0.0);
                else if (o->kind == opt::Kind::Switch)
                    opt::on(*o);
            } catch (const SimError &) {
            }
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_EQ(mutants, 6 * 300 + 25 * 40);
}

} // namespace
} // namespace ladm
