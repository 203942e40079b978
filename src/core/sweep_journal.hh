/**
 * @file
 * SweepJournal: completion log for resumable, cell-sharing sweeps.
 *
 * A figure harness runs a grid of independent cells; an interrupted
 * sweep would otherwise restart from cell zero, and a second figure
 * would simulate again the cells it shares with the first. The journal
 * is a common/record_log.hh log of kind Sweep with one record per
 * completed cell:
 *
 *   u64 cellKey | RunMetrics blob
 *
 * (the blob binary-serialized, so a replayed row is byte-identical to
 * the freshly computed one in every sink). runSweep() returns a cell's
 * recorded metrics instead of simulating it; a cell with no record --
 * never run, or in flight when the sweep died -- simulates and appends.
 *
 * A cell's key is its content: workload, policy, the config fingerprint
 * (snapshot::configFingerprint), launches and scale -- never its grid
 * position or just the preset's name. Any grid that holds the same cell
 * replays it; a preset edited without a rename misses and re-runs. The
 * log header carries kModelVersion, so a journal from another model
 * replays nothing.
 *
 * Activation: --resume-sweep[=path] or LADM_SWEEP_JOURNAL=path
 * (config/options.hh). Default path "ladm.sweep.jnl".
 */

#ifndef LADM_CORE_SWEEP_JOURNAL_HH
#define LADM_CORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/record_log.hh"
#include "core/metrics.hh"
#include "core/sweep_runner.hh"

namespace ladm
{
namespace core
{

/** Content key of one grid cell (see the file comment). */
uint64_t cellKey(const SweepCell &cell);

class SweepJournal
{
  public:
    /**
     * Open (and replay) the journal at @p path, creating it when
     * absent. A torn tail is truncated; its cells re-run.
     *
     * @throws SimError(Io) when @p path cannot be opened or is not a
     *         sweep journal
     */
    explicit SweepJournal(const std::string &path);

    /**
     * Metrics of a completed cell, or null when the cell must (re)run.
     * The pointer stays valid for the journal's lifetime.
     */
    const RunMetrics *completed(uint64_t key) const;

    /** Record the cell's result; the first result for a key wins. */
    void noteDone(uint64_t key, const RunMetrics &m);

    /** Completed cells read back from the file at open. */
    size_t completedReplayed() const { return replayed_; }

  private:
    RecordLog log_;
    mutable std::mutex mu_;
    std::map<uint64_t, RunMetrics> done_;
    size_t replayed_ = 0;
};

/**
 * The process-wide journal, or null when resumable sweeps are off.
 * Armed by setSweepJournalPath() or, lazily, by --resume-sweep /
 * LADM_SWEEP_JOURNAL (config/options.hh).
 */
SweepJournal *sweepJournal();

/** Arm (path non-empty) or disarm (empty) the process-wide journal. */
void setSweepJournalPath(const std::string &path);

} // namespace core
} // namespace ladm

#endif // LADM_CORE_SWEEP_JOURNAL_HH
