/**
 * @file
 * Structured, recoverable error reporting for the simulator.
 *
 * ladm_fatal() kills the process, which is the right behavior for a CLI
 * tool but the wrong one inside a SweepRunner worker: one bad grid point
 * must not take down a thousand-cell sweep. SimError is the recoverable
 * counterpart -- an exception carrying a list of Diagnostics (field,
 * offending value, violated constraint, fix hint) that the sweep layer
 * turns into an actionable per-job error row and every entry point can
 * render as a readable report.
 *
 * Conventions:
 *  - Config:    a SystemConfig / workload / bundle parameter is invalid.
 *  - Usage:     an API was called with inconsistent arguments.
 *  - Invariant: internal bookkeeping is inconsistent (LADM_CHECK suite);
 *               thrown as the InvariantViolation subclass.
 *  - Fault:     a fault-injection spec could not be honored.
 *  - Io:        a file or socket operation failed (journal, wire frame).
 *  - Remote:    the far side of a serve connection reported an error.
 *
 * Every error additionally carries a *stable* numeric code (ErrCode):
 * the serve protocol puts it on the wire so clients branch on the code
 * (retry BUSY, surface BAD_REQUEST, reconnect on IO) instead of
 * string-matching rendered messages. Codes are append-only: never renumber.
 */

#ifndef LADM_COMMON_SIM_ERROR_HH
#define LADM_COMMON_SIM_ERROR_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh" // detail::format used by ladm_require

namespace ladm
{

/**
 * Stable machine-readable error codes. Values are part of the serve wire
 * protocol (docs/serving.md) and of journal/CLI contracts: append new
 * codes, never renumber or reuse existing ones.
 */
enum class ErrCode : uint32_t
{
    Ok = 0,

    // 1xx: the caller's input is wrong (fix the request, do not retry).
    BadConfig = 100,   ///< SystemConfig/bundle parameter invalid
    BadUsage = 101,    ///< inconsistent API arguments
    ParseError = 102,  ///< kernel IR text failed to parse
    BadRequest = 103,  ///< malformed/unsupported serve request

    // 15x-16x: internal conditions.
    Invariant = 150,   ///< LADM_CHECK bookkeeping inconsistency
    FaultSpec = 160,   ///< unhonorable fault-injection spec

    // 2xx: I/O (retry may help; the resource may be transient).
    IoError = 200,         ///< file/socket operation failed
    CorruptFrame = 201,    ///< wire frame failed magic/CRC validation
    JournalCorrupt = 202,  ///< a journal file is not a log of its kind

    // 3xx: reported by the remote side of a serve connection.
    RemoteError = 300,      ///< generic server-side failure
    Busy = 301,             ///< admission queue full; honor retry-after
    DeadlineExceeded = 302, ///< request deadline elapsed before service
    ShuttingDown = 303,     ///< server draining; reconnect later
};

/** Short stable mnemonic, e.g. "BUSY"; "E<value>" for unknown codes. */
const char *toString(ErrCode c);

/**
 * Wire decode: values minted by a newer peer that this build does not
 * know map to RemoteError instead of producing an out-of-enum value.
 */
ErrCode errCodeFromWire(uint32_t v);

/** One structured finding inside a SimError. */
struct Diagnostic
{
    /** Dotted path of the offending knob, e.g. "system.chipletsPerGpu". */
    std::string field;
    /** The offending value, rendered as text. */
    std::string value;
    /** The constraint that must hold, e.g. "must be >= 1". */
    std::string constraint;
    /** How to fix it, e.g. "set chipletsPerGpu to at least 1". */
    std::string hint;
    /** Stable machine-readable code; Ok means "not specified". */
    ErrCode code = ErrCode::Ok;
};

/** "field = value: constraint (hint)" single-line rendering. */
std::string toString(const Diagnostic &d);

class SimError : public std::runtime_error
{
  public:
    enum class Kind
    {
        Config,    ///< invalid configuration parameter(s)
        Usage,     ///< inconsistent API arguments
        Invariant, ///< internal bookkeeping inconsistency (LADM_CHECK)
        Fault,     ///< unhonorable fault-injection spec
        Io,        ///< file/socket operation failed
        Remote,    ///< far side of a serve connection reported an error
    };

    SimError(Kind kind, std::string summary,
             std::vector<Diagnostic> diags = {});

    Kind kind() const { return kind_; }
    const std::string &summary() const { return summary_; }
    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    /**
     * The stable machine-readable code: the first diagnostic carrying
     * one, else a default derived from the kind (Config -> BadConfig,
     * Io -> IoError, ...). This is the value serve puts on the wire.
     */
    ErrCode code() const;

    /** Multi-line report: summary plus one indented line per finding. */
    std::string report() const;

  private:
    static std::string buildWhat(Kind kind, const std::string &summary,
                                 const std::vector<Diagnostic> &diags);

    Kind kind_;
    std::string summary_;
    std::vector<Diagnostic> diags_;
};

const char *toString(SimError::Kind k);

/**
 * A runtime invariant of the simulator's own bookkeeping failed (the
 * LADM_CHECK suite). Distinct type so tests can assert that the checker
 * -- not ordinary config validation -- caught a planted bug.
 */
class InvariantViolation : public SimError
{
  public:
    explicit InvariantViolation(std::string summary,
                                std::vector<Diagnostic> diags = {})
        : SimError(Kind::Invariant, std::move(summary), std::move(diags))
    {
    }
};

/**
 * Throw SimError(Usage) if @p cond does not hold. The recoverable
 * sibling of ladm_assert/ladm_fatal for conditions a caller (workload
 * spec, bundle, bench grid cell) can violate: a SweepRunner worker
 * reports the message as its job's error instead of dying.
 */
#define ladm_require(cond, ...) \
    do { \
        if (!(cond)) { \
            throw ::ladm::SimError( \
                ::ladm::SimError::Kind::Usage, \
                ::ladm::detail::format(__VA_ARGS__)); \
        } \
    } while (0)

} // namespace ladm

#endif // LADM_COMMON_SIM_ERROR_HH
