#include "snapshot/snapshot.hh"

#include <csignal>
#include <cstdio>
#include <mutex>

#include "check/invariants.hh"
#include "common/atomic_file.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "config/options.hh"
#include "config/system_config.hh"

namespace ladm
{
namespace snapshot
{

namespace
{

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
stopHandler(int)
{
    g_stop = 1;
}

Options g_options;
bool g_loaded = false; // g_options read from the option table yet?
bool g_handlersInstalled = false;

// Run-sequencing state: each runExperiment call takes the next sequence
// number; the checkpoint remembers which one it belongs to, so a
// multi-experiment driver re-executes the (deterministic) earlier runs
// and restores only into the matching one.
std::mutex g_mu;
uint32_t g_runSeq = 0;
bool g_busy = false;
bool g_busyWarned = false;
bool g_resumeConsumed = false;
std::shared_ptr<serial::Reader> g_reader;

} // namespace

Interrupted::Interrupted(std::string path, Cycles cycle)
    : path_(std::move(path)), cycle_(cycle)
{
    what_ = "run stopped at cycle " + std::to_string(cycle_) +
            "; checkpoint written to " + path_ +
            " (resume with --resume " + path_ + ")";
}

uint64_t
configFingerprint(const SystemConfig &c)
{
    const int shards = c.resolvedShards();
    // Checkpoints and serve journals are keyed by this value, which has
    // always started from this basis (FNV-1a's, one digit short).
    serial::Hasher h(1469598103934665603ull);
    h(c.name, c.numGpus, c.chipletsPerGpu, c.smsPerChiplet, c.topology,
      c.clockGhz, c.warpSize, c.warpSlotsPerSm, c.maxResidentTbsPerSm,
      c.computeGapCycles, c.warpPipelineDepth, shards, c.l1SizePerSm,
      c.l1Assoc, c.l1LatencyCycles, c.l2SizePerChiplet, c.l2Assoc,
      c.l2BanksPerChiplet, c.l2LatencyCycles, c.remoteCachingL2,
      c.pageSize, c.memBwPerChipletGBs, c.dramLatencyCycles,
      c.dramChannelsPerChiplet, c.pageMigration, c.migrationThreshold,
      c.migrationLatencyCycles, c.flushL2BetweenKernels,
      c.hbmCapacityPerNode, c.hostLinkGBs, c.hostFaultCycles,
      c.intraChipletXbarGBs, c.interChipletRingGBs, c.interGpuLinkGBs,
      c.monolithicXbarGBs, c.ringHopLatencyCycles, c.switchLatencyCycles,
      c.pageFaultCycles, c.uvmFirstTouchInterleave, c.faultSpec,
      c.faultDegradation);
    return h.value();
}

Options &
options()
{
    if (!g_loaded) {
        g_loaded = true;
        g_options.every = opt::whole(opt::kCheckpointEvery, 0);
        if (const std::string out = opt::str(opt::kCheckpointOut);
            !out.empty())
            g_options.out = out;
        g_options.resume = opt::str(opt::kResume);
        if (g_options.active())
            installSignalHandlers();
    }
    return g_options;
}

bool
stopRequested()
{
    return g_stop != 0;
}

void
requestStop()
{
    g_stop = 1;
}

void
clearStopRequest()
{
    g_stop = 0;
}

void
installSignalHandlers()
{
    if (g_handlersInstalled)
        return;
    g_handlersInstalled = true;
    std::signal(SIGINT, stopHandler);
    std::signal(SIGTERM, stopHandler);
}

void
resetForTest()
{
    std::lock_guard<std::mutex> lk(g_mu);
    g_options = Options{};
    g_loaded = false;
    g_runSeq = 0;
    g_busy = false;
    g_busyWarned = false;
    g_resumeConsumed = false;
    g_reader.reset();
    g_stop = 0;
}

int
runMain(const std::function<int()> &body)
{
    return check::runMain([&] {
        try {
            return body();
        } catch (const Interrupted &e) {
            std::fprintf(stderr, "ladm: %s\n", e.what());
            return kExitCheckpointed;
        }
    });
}

void
requireCheckpointable(const SystemConfig &cfg,
                      const TelemetryOptions &topts)
{
    auto refuse = [](const std::string &field, const std::string &value,
                     const std::string &hint) {
        throw SimError(
            SimError::Kind::Config,
            "configuration not checkpointable",
            {{field, value,
              "checkpointing does not serialize this feature's state",
              hint}});
    };
    if (topts.traceEnabled()) {
        refuse("telemetry.traceOutPath", topts.traceOutPath,
               "drop --trace-out, or run without --checkpoint-every");
    }
    if (topts.obsAttribution || topts.obsHeatmap) {
        refuse("telemetry.obs",
               topts.obsAttribution ? "attribution" : "heatmap",
               "drop --obs-attribution/--obs-heatmap, or run without "
               "--checkpoint-every");
    }
    if (cfg.hbmCapacityPerNode != 0) {
        refuse("system.hbmCapacityPerNode",
               std::to_string(cfg.hbmCapacityPerNode),
               "the host-memory FIFO model is not serialized; set "
               "hbmCapacityPerNode=0 or run without checkpointing");
    }
}

Checkpointer::Checkpointer(std::string out, Cycles every, Cycles stop_at,
                           uint64_t fingerprint, uint32_t seq)
    : out_(std::move(out)), every_(every), nextAt_(every), stopAt_(stop_at),
      fingerprint_(fingerprint), seq_(seq)
{
}

Checkpointer::~Checkpointer()
{
    std::lock_guard<std::mutex> lk(g_mu);
    g_busy = false;
}

bool
Checkpointer::capture(Cycles now,
                      const std::function<void(serial::Writer &)> &engine)
{
    writeTo(out_, now, engine);
    if (every_ != 0) {
        // Period from the capture cycle, not a fixed grid: a resumed
        // run re-schedules identically because nextAt_ never persists.
        nextAt_ = now + every_;
    }
    return stopRequested() || (stopAt_ != 0 && now >= stopAt_);
}

void
Checkpointer::postMortem(
    Cycles now, const std::function<void(serial::Writer &)> &engine)
{
    const std::string path = out_ + ".postmortem";
    writeTo(path, now, engine);
    ladm_warn("watchdog checkpoint written to ", path,
              "; replay with --resume ", path, " --check");
}

void
Checkpointer::writeTo(const std::string &path, Cycles now,
                      const std::function<void(serial::Writer &)> &engine)
{
    serial::Writer w;
    w.section(kMeta);
    w(seq_, now);
    if (ctx_)
        ctx_(w);
    w.section(kEngine);
    engine(w);
    atomicWriteBytes(path, w.finish(fingerprint_));
}

std::unique_ptr<Checkpointer>
makeRunCheckpointer(const SystemConfig &cfg)
{
    std::lock_guard<std::mutex> lk(g_mu);
    const Options &o = options();
    if (!o.active())
        return nullptr;
    if (g_busy) {
        // One checkpoint stream per process: concurrent sweep workers
        // would interleave writes into the same file.
        if (!g_busyWarned) {
            g_busyWarned = true;
            ladm_warn("checkpointing covers one run at a time; "
                      "concurrent runs proceed without it");
        }
        return nullptr;
    }
    const uint32_t seq = g_runSeq++;
    const uint64_t fingerprint = configFingerprint(cfg);
    // Validate the resume image before constructing the Checkpointer:
    // ~Checkpointer re-locks g_mu, so letting a throw unwind a live
    // Checkpointer inside this locked scope would self-deadlock.
    std::shared_ptr<serial::Reader> restore;
    if (!o.resume.empty() && !g_resumeConsumed) {
        if (!g_reader) {
            g_reader = std::make_shared<serial::Reader>(
                serial::Reader::fromFile(o.resume));
        }
        g_reader->section(kMeta);
        uint32_t ck_seq = 0;
        (*g_reader)(ck_seq);
        if (ck_seq == seq) {
            if (g_reader->fingerprint() != fingerprint) {
                throw SimError(
                    SimError::Kind::Config,
                    "checkpoint does not match this configuration",
                    {{"checkpoint.fingerprint", o.resume,
                      "the SystemConfig of the resuming run must hash "
                      "identically to the checkpointed one",
                      "resume with the exact command line / config "
                      "that produced the checkpoint"}});
            }
            restore = g_reader;
            g_resumeConsumed = true;
        }
    }
    auto ck = std::make_unique<Checkpointer>(o.out, o.every, o.testStopAt,
                                             fingerprint, seq);
    if (restore)
        ck->armRestore(restore, -1);
    g_busy = true;
    return ck;
}

} // namespace snapshot
} // namespace ladm
