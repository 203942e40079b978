/**
 * @file
 * RecordLog: the crash-safe append-only log behind both journals, the
 * sweep journal (core/sweep_journal.hh) and the serve decision journal
 * (serve/cache.hh).
 *
 * A log is a 16-byte header
 *
 *   magic "LADMRLOG" | u32 log kind | u32 model version
 *
 * followed by self-validating records
 *
 *   u32 payload length | u32 CRC32(payload) | payload
 *
 * Each record goes out in one write(2) on an O_APPEND descriptor the log
 * holds open, so a kill -9 can tear only the last record. open() replays
 * the records in append order, stops at the first one that is short,
 * implausibly long or fails its CRC, and truncates the file back to the
 * last good byte: appends then extend a valid stream, and a committed
 * record -- one whose append() returned -- is never lost.
 *
 * Everything a log holds is derived from the simulated model, so a log
 * stamped with another kModelVersion is stale: open() warns, resets it
 * to a bare header and replays nothing. A file that is not a log of the
 * expected kind (foreign magic, or the other kind) is refused with
 * SimError(Io, JournalCorrupt) and left untouched.
 *
 * Scalars use the host's native layout, like checkpoints: a log is a
 * same-machine restart artifact.
 */

#ifndef LADM_COMMON_RECORD_LOG_HH
#define LADM_COMMON_RECORD_LOG_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace ladm
{

/**
 * Version of the simulated model. Every record log is stamped with it,
 * and a log stamped with another one replays nothing: its records came
 * from a different model. Bump it in the same commit as any golden
 * re-bless.
 */
constexpr uint32_t kModelVersion = 1;

/** What a log holds; a log opened as the wrong kind is refused. */
enum class LogKind : uint32_t
{
    Sweep = 1,    ///< sweep-cell results (core/sweep_journal.hh)
    Decision = 2, ///< placement decisions (serve/cache.hh)
};

class RecordLog
{
  public:
    /** magic, kind and model version */
    static constexpr size_t kHeaderBytes = 16;
    /** Replay treats a longer record as corruption. */
    static constexpr uint32_t kMaxRecordBytes = 64u << 20;

    RecordLog() = default;
    ~RecordLog();

    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Open @p path for appending, creating it (with its header) when
     * absent or empty. An existing log is replayed through @p sink
     * first, one call per valid record in append order; the log is
     * not open, and holds no lock, while @p sink runs.
     *
     * @return number of records replayed
     * @throws SimError(Io) when the file cannot be opened, read or
     *         repaired, with code JournalCorrupt when it is not a log
     *         of kind @p kind
     */
    size_t open(const std::string &path, LogKind kind,
                const std::function<void(std::string_view)> &sink);

    /**
     * Append one record with a single write(2). Thread-safe. When the
     * write fails (disk full, fd gone) the log warns once and closes:
     * the caller keeps working without crash coverage.
     */
    void append(std::string_view payload);

    /** fdatasync the tail. */
    void sync();

    /** fdatasync and close; a no-op when not open. */
    void close();

    bool isOpen() const;

  private:
    std::string path_;
    int fd_ = -1;
    mutable std::mutex mu_;
};

} // namespace ladm

#endif // LADM_COMMON_RECORD_LOG_HH
