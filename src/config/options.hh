/**
 * @file
 * One declared table of every command-line flag and LADM_* variable.
 *
 * An Option record names a flag, the LADM_* variable that stands for it,
 * the kind of value it takes, a lower bound and a line of help. The
 * shared records below declare every LADM_* variable once; a binary adds
 * records of its own that write straight into one of its variables, and
 * hands both to parse():
 *
 *   int repeats = 3;
 *   opt::parse(argc, argv, opt::Simulator | opt::Telemetry,
 *              {opt::local("--repeats", &repeats, "passes (default 3)")});
 *
 * parse() takes "--flag value" and "--flag=value", strips what it
 * recognises and leaves positional arguments in place. Any other
 * "-"-prefixed argument is a SimError(Config) naming the nearest known
 * flag; --help / -h prints help generated from the records and exits 0.
 *
 * A shared option is read where it is used, through str() / whole() /
 * number() / on(): the value parse() saw on the command line, else the
 * variable, else the caller's default. Nothing is read during static
 * initialisation, so tests may setenv() mid-process, and parse() checks
 * every variable of the groups it accepts up front so a bad one fails
 * inside runMain() rather than deep in a run.
 *
 * One validator serves both spellings of an option:
 *  - Whole: decimal digits only, >= min ("--jobs must be a whole number
 *    > 0, got 'x'") and <= max;
 *  - Number: a finite decimal number > min;
 *  - Switch: "", "0", "false", "off" are off; "1", "true", "on" are on;
 *    the bare flag is on; anything else is an error.
 * An empty variable counts as unset.
 */

#ifndef LADM_CONFIG_OPTIONS_HH
#define LADM_CONFIG_OPTIONS_HH

#include <climits>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace ladm
{
namespace opt
{

/** The kinds of value; unscoped so the table below reads as a table. */
enum Kind { String, Whole, Number, Switch };

/** Bit set of shared-option groups a binary accepts. */
enum Group : unsigned
{
    Telemetry = 1u << 0,  ///< stats, trace, timeline and obs sinks (13)
    Shards = 1u << 1,     ///< --shards / LADM_SHARDS
    Check = 1u << 2,      ///< invariant suite and its watchdog
    Checkpoint = 1u << 3, ///< --checkpoint-every/-out, --resume
    Profile = 1u << 4,    ///< --profile / LADM_PROFILE
    Sweep = 1u << 5,      ///< --jobs, --resume-sweep
    Bench = 1u << 6,      ///< bench scale, continue-on-error, CSV sink
    /** What every binary that runs the simulator honours. */
    Simulator = Shards | Check | Checkpoint | Profile,
};

/** The variable a binary's own option writes into. */
using Target = std::variant<std::monostate, std::string *, int *,
                            uint32_t *, uint64_t *, double *>;

inline constexpr double kNoMin = -std::numeric_limits<double>::infinity();

struct Option
{
    /** "--stats-json", or a short form such as "-o". */
    const char *flag = nullptr;
    /** The LADM_* variable; null for a binary's own options. */
    const char *env = nullptr;
    Kind kind = Kind::String;
    const char *help = "";
    /** Where a binary's own option lands; empty for shared ones. */
    Target target = {};
    /** Whole: the smallest value allowed. Number: values must exceed it. */
    double min = 1;
    /** Whole: the largest value allowed (also capped by the target). */
    uint64_t max = std::numeric_limits<uint64_t>::max();
    /** What the flag alone means when it may go without "=value". */
    const char *bare = nullptr;
    /** The shared group this record belongs to (0 for local records). */
    unsigned group = 0;
};

/**
 * A binary's own option writing into @p target: a string takes any text,
 * an integer a whole number >= @p min, a double a number > @p min.
 */
template <class T>
Option
local(const char *flag, T *target, const char *help,
      double min = std::is_floating_point_v<T> ? kNoMin : 1)
{
    const Kind kind = std::is_same_v<T, std::string> ? Kind::String
                      : std::is_floating_point_v<T>  ? Kind::Number
                                                     : Kind::Whole;
    return {.flag = flag, .kind = kind, .help = help, .target = target,
            .min = min};
}

/** A shared record: a flag and its LADM_* variable in @p group. */
constexpr Option
shared(unsigned group, Kind kind, const char *flag, const char *env,
       const char *help, double min = 1, uint64_t max = UINT64_MAX)
{
    return {.flag = flag, .env = env, .kind = kind, .help = help,
            .min = min, .max = max, .group = group};
}

// --- the shared table: every LADM_* variable, once --------------------------
// One row per option: shared(group, kind, flag, variable, help[, min[, max]]).
// README.md's option table mirrors this one.

// clang-format off
inline constexpr Option kStatsJson = shared(Telemetry, String, "--stats-json", "LADM_STATS_JSON", "versioned JSON stats (ladm-stats-v1)");
inline constexpr Option kStatsCsv = shared(Telemetry, String, "--stats-csv", "LADM_STATS_CSV", "flat run,workload,policy,path,kind,value rows");
inline constexpr Option kStatsText = shared(Telemetry, String, "--stats-text", "LADM_STATS_TEXT", "pretty stats tree");
inline constexpr Option kTraceOut = shared(Telemetry, String, "--trace-out", "LADM_TRACE_OUT", "Chrome trace-event JSON; forces one sweep worker");
inline constexpr Option kTraceSample = shared(Telemetry, Whole, "--trace-sample", "LADM_TRACE_SAMPLE", "1-in-N thinning of hot trace categories (default 64)", 1, UINT32_MAX);
inline constexpr Option kTraceMaxEvents = shared(Telemetry, Whole, "--trace-max-events", "LADM_TRACE_MAX_EVENTS", "trace event cap (default 1000000)");
inline constexpr Option kTimelineOut = shared(Telemetry, String, "--timeline-out", "LADM_TIMELINE_OUT", "timeline JSON (ladm-timeline-v1), a CSV beside it");
inline constexpr Option kTimelineWindow = shared(Telemetry, Whole, "--timeline-window", "LADM_TIMELINE_WINDOW", "timeline window in cycles (default 10000)");
inline constexpr Option kTimelineMaxWindows = shared(Telemetry, Whole, "--timeline-max-windows", "LADM_TIMELINE_MAX_WINDOWS", "windows kept before merging (default 512)", 2, UINT32_MAX);
inline constexpr Option kTimelinePaths = shared(Telemetry, String, "--timeline-paths", "LADM_TIMELINE_PATHS", "registry paths a,b to sample (default: core set)");
inline constexpr Option kObsAttribution = shared(Telemetry, Switch, "--obs-attribution", "LADM_OBS_ATTRIBUTION", "per-access latency attribution");
inline constexpr Option kObsHeatmap = shared(Telemetry, Switch, "--obs-heatmap", "LADM_OBS_HEATMAP", "requester x home traffic, hot-page tables");
inline constexpr Option kObsHotPages = shared(Telemetry, Whole, "--obs-hot-pages", "LADM_OBS_HOT_PAGES", "hot-page table size (default 20)", 1, UINT32_MAX);
inline constexpr Option kShards = shared(Shards, Whole, "--shards", "LADM_SHARDS", "PDES shards where SystemConfig::shards is 0 (default 1)", 0);
inline constexpr Option kCheck = shared(Check, Switch, "--check", "LADM_CHECK", "arm the invariant suite");
inline constexpr Option kCheckWatchdog = shared(Check, Whole, "--check-watchdog", "LADM_CHECK_WATCHDOG", "no-progress events before abort (default 1000000)");
inline constexpr Option kCheckpointEvery = shared(Checkpoint, Whole, "--checkpoint-every", "LADM_CHECKPOINT_EVERY", "checkpoint period in cycles (default 0 = off)", 0);
inline constexpr Option kCheckpointOut = shared(Checkpoint, String, "--checkpoint-out", "LADM_CHECKPOINT_OUT", "checkpoint file (default ladm.ckpt)");
inline constexpr Option kResume = shared(Checkpoint, String, "--resume", "LADM_RESUME", "restore the run from this checkpoint");
inline constexpr Option kProfile = shared(Profile, Switch, "--profile", "LADM_PROFILE", "print the host phase profile at exit");
inline constexpr Option kJobs = shared(Sweep, Whole, "--jobs", "LADM_BENCH_JOBS", "sweep workers (default: hardware threads)", 1, INT_MAX);
inline constexpr Option kResumeSweep{.flag = "--resume-sweep", .env = "LADM_SWEEP_JOURNAL", .help = "sweep cell journal to replay and extend", .bare = "ladm.sweep.jnl", .group = Sweep};
inline constexpr Option kBenchScale = shared(Bench, Number, "--bench-scale", "LADM_BENCH_SCALE", "workload size factor (default 1.0)", 0);
inline constexpr Option kBenchContinue = shared(Bench, Switch, "--continue-on-error", "LADM_BENCH_CONTINUE", "a failing grid cell becomes an error row");
inline constexpr Option kBenchCsv = shared(Bench, String, "--bench-csv", "LADM_BENCH_CSV", "directory for <bench>.csv rows");
// clang-format on

/** Every shared record, in help order. */
inline constexpr const Option *kShared[] = {
    &kStatsJson, &kStatsCsv, &kStatsText, &kTraceOut, &kTraceSample,
    &kTraceMaxEvents, &kTimelineOut, &kTimelineWindow, &kTimelineMaxWindows,
    &kTimelinePaths, &kObsAttribution, &kObsHeatmap, &kObsHotPages,
    &kShards, &kCheck, &kCheckWatchdog, &kCheckpointEvery, &kCheckpointOut,
    &kResume, &kProfile, &kJobs, &kResumeSweep, &kBenchScale,
    &kBenchContinue, &kBenchCsv};

/**
 * Parse @p argv against the shared records in @p groups plus @p local,
 * strip what matched and check the accepted groups' variables.
 * @param usage what follows the program name in the help's usage line
 * @throws SimError(Config) on an unknown flag, a missing value or a
 *         value its option rejects, naming the flag or variable
 */
void parse(int &argc, char **argv, unsigned groups,
           const std::vector<Option> &local = {},
           const char *usage = "[options]");

/** String value; "" when unset. */
std::string str(const Option &o);
/** Switch value; off when unset. */
bool on(const Option &o);
/** Number value; @p dflt when unset. */
double number(const Option &o, double dflt);
/** Whole value; @p dflt when unset. */
uint64_t whole(const Option &o, uint64_t dflt);

/** Forget every flag value parse() recorded (tests). */
void resetForTest();

} // namespace opt
} // namespace ladm

#endif // LADM_CONFIG_OPTIONS_HH
