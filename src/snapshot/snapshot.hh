/**
 * @file
 * ladm::snapshot -- crash-safe checkpoint/resume for long runs.
 *
 * A checkpoint is a sectioned binary image (common/serial.hh) of the
 * complete simulator state at an event-loop *safe point*: engine loop
 * position and warp states, event-queue heaps (including per-shard
 * PDES lanes and their window clock), cache SoA
 * arrays, MSHRs, page-table segments + exception overlay, bandwidth
 * servers, and the telemetry registry's eager counters. A run killed at
 * cycle N and resumed with --resume is bit-identical -- metrics, sinks,
 * figures -- to the uninterrupted run, because everything the remaining
 * events can observe is restored exactly and everything else (traces,
 * workloads) reconstructs deterministically from the same seeds.
 *
 * Activation (mirrors ladm::check's opt-in pattern; all hooks are one
 * untaken null-pointer branch when off):
 *
 *   --checkpoint-every N / LADM_CHECKPOINT_EVERY  write a checkpoint at
 *                        the first safe point every N simulated cycles
 *   --checkpoint-out P   / LADM_CHECKPOINT_OUT    file path (default
 *                        "ladm.ckpt"); written atomically (tmp + fsync
 *                        + rename), so the file is always intact
 *   --resume P           / LADM_RESUME            restore from P
 *
 * Graceful shutdown: when checkpointing is armed, SIGINT/SIGTERM set a
 * flag the engine polls at the same safe points; the run drains to the
 * next one, flushes a final checkpoint plus whatever telemetry sinks
 * are armed, and exits with status kExitCheckpointed (75) so wrappers
 * can tell "checkpointed, resume me" from success (0) and failure (1).
 *
 * Safe-point rule: serially, between two events of the engine loop (the
 * queue is consistent and no access is in flight); sharded, the
 * window-advance barrier of the PDES loop (every lane quiescent, no
 * deferred op outstanding). See docs/robustness.md.
 */

#ifndef LADM_SNAPSHOT_SNAPSHOT_HH
#define LADM_SNAPSHOT_SNAPSHOT_HH

#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "common/serial.hh"
#include "common/types.hh"

namespace ladm
{

struct SystemConfig;
struct TelemetryOptions;

namespace snapshot
{

/** Exit status of a run that stopped at a safe point with a checkpoint. */
constexpr int kExitCheckpointed = 75;

/** Section ids of the checkpoint image. */
enum SectionId : uint32_t
{
    kMeta = 1,       ///< run sequence number + checkpoint cycle
    kExperiment = 2, ///< launch loop position, queues, accumulated stats
    kSystem = 3,     ///< GpuSystem: clock, kernel log, start snapshot
    kMemory = 4,     ///< MemorySystem: pages, caches, MSHRs, servers
    kRegistry = 5,   ///< StatRegistry eager groups
    kTimeline = 6,   ///< open obs timeline windows (present iff armed)
    kEngine = 7,     ///< event loop: queue(s), warps, SMs, cursors
};

/**
 * Thrown from the engine's safe point after the final checkpoint of a
 * requested stop has been written; entry points map it to
 * kExitCheckpointed via runMain().
 */
class Interrupted : public std::exception
{
  public:
    Interrupted(std::string path, Cycles cycle);
    const char *what() const noexcept override { return what_.c_str(); }
    const std::string &path() const { return path_; }
    Cycles cycle() const { return cycle_; }

  private:
    std::string path_;
    Cycles cycle_ = 0;
    std::string what_;
};

/**
 * FNV-1a hash over every SystemConfig field. Stored in the checkpoint
 * header; --resume refuses (SimError) when the restoring run's config
 * hashes differently -- restoring a 16-node image into an 8-node
 * machine would index every per-node vector out of bounds.
 */
uint64_t configFingerprint(const SystemConfig &cfg);

/** Global activation state (option table / tests). */
struct Options
{
    Cycles every = 0;      ///< checkpoint period in cycles; 0 = off
    std::string out = "ladm.ckpt";
    std::string resume;    ///< checkpoint to restore; empty = none
    /**
     * Test hook: behave as if SIGTERM arrived at the first safe point
     * at or after this cycle (deterministic "kill"). 0 = off.
     */
    Cycles testStopAt = 0;

    bool active() const { return every > 0 || !resume.empty() ||
                                 testStopAt > 0; }
};

/**
 * The activation state, read from --checkpoint-every, --checkpoint-out
 * and --resume (config/options.hh) on first use, which also installs the
 * SIGINT/SIGTERM handlers when checkpointing is armed.
 */
Options &options();

/** True once a stop signal (or requestStop()) arrived. */
bool stopRequested();
/** What the SIGINT/SIGTERM handler does; callable from code/tests. */
void requestStop();
void clearStopRequest();

/** Install the stop-flag signal handlers (idempotent). */
void installSignalHandlers();

/** Reset all global snapshot state between tests. */
void resetForTest();

/**
 * Entry-point guard: check::runMain plus the Interrupted ->
 * kExitCheckpointed mapping. Returning (rather than aborting) lets the
 * telemetry session's atexit finalizer flush partial sinks.
 */
int runMain(const std::function<int()> &body);

/**
 * Refuse (SimError(Config), one Diagnostic naming the feature) when
 * the run uses state the checkpoint format does not carry: event
 * tracing, the host-memory model, or obs attribution/heatmaps.
 */
void requireCheckpointable(const SystemConfig &cfg,
                           const TelemetryOptions &topts);

/**
 * One run's checkpoint writer / restore source. Created per
 * runExperiment by makeRunCheckpointer(); the engine holds a raw
 * pointer (null = checkpointing off = zero cost) and drives pending()/
 * capture() at its safe points. Single-run-at-a-time: concurrent sweep
 * workers beyond the first get null.
 */
class Checkpointer
{
  public:
    Checkpointer(std::string out, Cycles every, Cycles stop_at,
                 uint64_t fingerprint, uint32_t seq);
    ~Checkpointer();

    Checkpointer(const Checkpointer &) = delete;
    Checkpointer &operator=(const Checkpointer &) = delete;

    /** Sections above the engine (experiment/system/memory/registry). */
    void setContextSaver(std::function<void(serial::Writer &)> fn)
    {
        ctx_ = std::move(fn);
    }

    /** Cheap safe-point predicate: is a checkpoint (or stop) due? */
    bool
    pending(Cycles now) const
    {
        return stopRequested() || (every_ != 0 && now >= nextAt_) ||
               (stopAt_ != 0 && now >= stopAt_);
    }

    /**
     * Write a full checkpoint at a safe point. Returns true when the
     * run should stop (signal or test stop): the caller unwinds with
     * Interrupted after restoring any loop invariants.
     */
    bool capture(Cycles now,
                 const std::function<void(serial::Writer &)> &engine);

    /**
     * Watchdog post-mortem: dump to "<out>.postmortem" so the hang can
     * be replayed offline with --resume + --check.
     */
    void postMortem(Cycles now,
                    const std::function<void(serial::Writer &)> &engine);

    /**
     * After a restore: schedule the next periodic checkpoint relative
     * to the restored cycle, exactly as the original run did after
     * writing that checkpoint.
     */
    void
    noteResumed(Cycles now)
    {
        if (every_ != 0)
            nextAt_ = now + every_;
    }

    const std::string &outPath() const { return out_; }
    uint64_t fingerprint() const { return fingerprint_; }
    uint32_t seq() const { return seq_; }

    // -- restore side ----------------------------------------------------
    void
    armRestore(std::shared_ptr<serial::Reader> r, int launch)
    {
        restore_ = std::move(r);
        restoreLaunch_ = launch;
    }
    bool restorePending() const { return restore_ != nullptr; }
    /** Called once the Experiment section names the in-flight launch. */
    void setRestoreLaunch(int launch) { restoreLaunch_ = launch; }
    bool
    restoreArmedFor(int launch) const
    {
        return restore_ && launch == restoreLaunch_;
    }
    serial::Reader &reader() { return *restore_; }
    void finishRestore() { restore_.reset(); }

  private:
    void writeTo(const std::string &path, Cycles now,
                 const std::function<void(serial::Writer &)> &engine);

    std::string out_;
    Cycles every_;
    Cycles nextAt_;
    Cycles stopAt_;
    uint64_t fingerprint_;
    uint32_t seq_;
    std::function<void(serial::Writer &)> ctx_;
    std::shared_ptr<serial::Reader> restore_;
    int restoreLaunch_ = -1;
};

/**
 * Hand out this run's Checkpointer, or null when snapshotting is
 * inactive (or another run already holds it). When --resume names this
 * run (by global run sequence number), the returned Checkpointer
 * carries the validated Reader; fingerprint mismatches throw
 * SimError(Config).
 */
std::unique_ptr<Checkpointer>
makeRunCheckpointer(const SystemConfig &cfg);

} // namespace snapshot
} // namespace ladm

#endif // LADM_SNAPSHOT_SNAPSHOT_HH
