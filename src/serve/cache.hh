/**
 * @file
 * The server's warm state: a sharded in-memory decision cache plus its
 * crash-safe append-only journal.
 *
 * Cache: N independent shards (mutex + open hash map) selected by the
 * key hash, so concurrent lookups from the connection threads and
 * inserts from the worker pool contend only 1/N of the time. Each entry
 * is the complete Decision reply frame for its key (wire.hh header and
 * CRC, flags degraded=0 cached=1, then the decision's canonical
 * *encoded bytes* from decision.hh), built once by put(). A cache hit
 * sends those bytes unchanged: what the journal stores is exactly what
 * travels inside the frame, so bit-identity is checkable end to end.
 *
 * Journal: a common/record_log.hh log of kind Decision, one record per
 * committed decision:
 *
 *   u64 irHash | u64 fingerprint | encoded decision
 *
 * The log supplies the crash safety (one write(2) per record, a torn
 * tail truncated on replay, a committed decision never lost) and the
 * model-version check (a journal from another model replays nothing).
 * Degraded (heuristic) answers are never journaled; every record
 * replays bit-identical to a cold recompute of its key.
 */

#ifndef LADM_SERVE_CACHE_HH
#define LADM_SERVE_CACHE_HH

#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/record_log.hh"
#include "serve/decision.hh"

namespace ladm
{
namespace serve
{

class DecisionCache
{
  public:
    explicit DecisionCache(int shards = 16);

    DecisionCache(const DecisionCache &) = delete;
    DecisionCache &operator=(const DecisionCache &) = delete;

    /**
     * The prebuilt Decision reply frame for @p key, or null on a miss.
     * Entries are never replaced or erased, so the frame stays valid,
     * unchanged, for the cache's lifetime.
     */
    const std::string *find(const DecisionKey &key) const;

    /**
     * Insert the reply frame for decision bytes @p encoded under
     * @p key. Returns false when the key was already present (the
     * stored frame wins; idempotent replays and single-flight races
     * both land here).
     */
    bool put(const DecisionKey &key, std::string_view encoded);

    size_t size() const;
    int numShards() const { return static_cast<int>(shards_.size()); }

  private:
    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<DecisionKey, std::string, DecisionKeyHash>
            map;
    };

    Shard &shardFor(const DecisionKey &key) const;

    mutable std::vector<Shard> shards_;
};

class DecisionJournal
{
  public:
    /**
     * Open @p path for appending, creating it (with header) if absent.
     * An existing journal is replayed through @p sink first -- one call
     * per valid record, in append order -- and truncated past the last
     * valid record so subsequent appends extend a clean tail.
     *
     * @return number of records replayed
     * @throws SimError(Io) when the file cannot be opened/created or
     *         its header is not a decision journal
     */
    size_t open(const std::string &path,
                const std::function<void(const DecisionKey &,
                                         const std::string &)> &sink);

    /**
     * Append one committed decision. Thread-safe; the record is written
     * with a single write(2). When the append fails (disk full, fd
     * gone) the journal turns itself off and warns once -- the server
     * keeps answering, it just loses warm-restart coverage, which beats
     * refusing traffic.
     */
    void append(const DecisionKey &key, const std::string &encoded);

    /** fdatasync the tail (graceful-shutdown path). */
    void sync() { log_.sync(); }

    void close() { log_.close(); }
    bool isOpen() const { return log_.isOpen(); }

  private:
    RecordLog log_;
};

} // namespace serve
} // namespace ladm

#endif // LADM_SERVE_CACHE_HH
