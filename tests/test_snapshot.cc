/**
 * @file
 * Tests for ladm::snapshot (checkpoint/resume), the atomic-sink layer,
 * the resumable sweep journal, and the PDES fallback diagnostic.
 *
 * The load-bearing suite is the kill-and-resume differential: a run
 * deterministically "killed" at cycle N (Options::testStopAt stands in
 * for SIGTERM at the engine's safe point), then resumed from the
 * flushed checkpoint, must be bit-identical -- every metric, every
 * registry counter in the CSV sink -- to the uninterrupted reference.
 * Covered for a regular workload (VecAdd) and an irregular one
 * (PageRank), in the serial loop and the sharded PDES loop, and across
 * a multi-launch experiment.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <unistd.h>

#include "check/invariants.hh"
#include "common/atomic_file.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "config/options.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "core/sweep_journal.hh"
#include "mem/page_table.hh"
#include "sched/kernel_wide.hh"
#include "sim/event_queue.hh"
#include "sim/gpu_system.hh"
#include "sim/mshr_table.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/session.hh"
#include "telemetry/stat_registry.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

/**
 * Per-test, per-process scratch path: ctest runs each test in its own
 * process, in parallel, and they all share TempDir().
 */
std::string
tmpPath(const std::string &name)
{
    const ::testing::TestInfo *t =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/" + t->name() + "_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Registry lines that report host wall-clock (PDES barrier waits) are
 * real time, not simulated time: they legitimately differ between an
 * interrupted-and-resumed run and an uninterrupted one, so the
 * bit-identical comparison drops them (see docs/robustness.md).
 */
std::string
dropWallClockLines(const std::string &csv)
{
    std::istringstream in(csv);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("barrier_wait_ns") == std::string::npos)
            out << line << '\n';
    }
    return out.str();
}

class SnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        snapshot::resetForTest();
        telemetry::session().resetForTest();
        ::unsetenv("LADM_SHARDS");
        ::unsetenv("LADM_CHECKPOINT_EVERY");
        ::unsetenv("LADM_RESUME");
    }
    void
    TearDown() override
    {
        opt::resetForTest();
        snapshot::resetForTest();
        telemetry::session().resetForTest();
    }
};

RunMetrics
runOnce(const char *workload, int shards, double scale, int launches = 1)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = shards;
    auto w = workloads::makeWorkload(workload, scale);
    return runExperiment(*w, Policy::Ladm, cfg, launches);
}

/**
 * The differential: reference run, killed run, resumed run; the resumed
 * metrics and the full registry CSV must match the reference byte for
 * byte (modulo wall-clock gauges).
 *
 * @param stop_at deterministic kill cycle; 0 = half the reference run.
 *                Note the stop fires at the engine's *event-time* safe
 *                points: single-step kernels (VecAdd) keep all event
 *                times near launch even though completions run long, so
 *                they need an explicitly early stop.
 */
void
expectResumeIdentical(const char *workload, int shards, double scale,
                      int launches = 1, Cycles stop_at = 0)
{
    const std::string ckpt = tmpPath("resume.ckpt");
    const std::string ref_csv = tmpPath("ref.csv");
    const std::string res_csv = tmpPath("res.csv");

    // Uninterrupted reference, with the CSV sink armed so the whole
    // stat tree lands in a comparable file.
    TelemetryOptions topts;
    topts.statsCsvPath = ref_csv;
    telemetry::session().configure(topts);
    const RunMetrics ref = runOnce(workload, shards, scale, launches);
    telemetry::session().finalize();
    telemetry::session().resetForTest();
    if (stop_at == 0)
        stop_at = ref.cycles / 2;
    ASSERT_GT(ref.cycles, stop_at) << "workload too small to interrupt";

    // Killed run: stop deterministically at the first safe point at or
    // after stop_at. runExperiment dies with Interrupted after the
    // final checkpoint is flushed.
    snapshot::resetForTest();
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = stop_at;
    bool interrupted = false;
    try {
        runOnce(workload, shards, scale, launches);
    } catch (const snapshot::Interrupted &e) {
        interrupted = true;
        EXPECT_EQ(e.path(), ckpt);
        EXPECT_GE(e.cycle(), stop_at);
        EXPECT_LT(e.cycle(), ref.cycles);
    }
    ASSERT_TRUE(interrupted) << "testStopAt never fired";

    // Resumed run: restores the checkpoint and completes.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    topts.statsCsvPath = res_csv;
    telemetry::session().configure(topts);
    const RunMetrics res = runOnce(workload, shards, scale, launches);
    telemetry::session().finalize();
    telemetry::session().resetForTest();

    // Bit-identical: the one-row metrics and the whole registry.
    EXPECT_EQ(csvRow(ref), csvRow(res));
    EXPECT_EQ(dropWallClockLines(slurp(ref_csv)),
              dropWallClockLines(slurp(res_csv)));
}

TEST_F(SnapshotTest, ResumeIdenticalVecAddSerial)
{
    // VecAdd warps are single-step, so every event time sits at the
    // first compute gap; stop there (mid-kernel: the step-0 wave has
    // executed, the retire wave has not).
    expectResumeIdentical("VecAdd", 1, 0.25, 1, /*stop_at=*/2);
}

TEST_F(SnapshotTest, ResumeIdenticalConvSharded)
{
    // Regular multi-step workload under the sharded PDES loop: the
    // window barrier is the safe point. (Sharded VecAdd completes
    // inside one conservative window, so it has no mid-kernel barrier
    // to stop at -- CONV is the regular workload with enough steps.)
    expectResumeIdentical("CONV", 4, 0.2);
}

TEST_F(SnapshotTest, ResumeIdenticalPageRankSerial)
{
    expectResumeIdentical("PageRank", 1, 0.1);
}

TEST_F(SnapshotTest, ResumeIdenticalPageRankSharded)
{
    expectResumeIdentical("PageRank", 4, 0.1);
}

TEST_F(SnapshotTest, ResumeIdenticalMultiLaunch)
{
    // Half of a three-launch experiment lands inside a later launch:
    // the restore replays completed launches host-side and resumes the
    // in-flight one.
    expectResumeIdentical("VecAdd", 1, 0.25, /*launches=*/3);
}

// --- format-level behaviour ------------------------------------------------

TEST_F(SnapshotTest, SerialRoundTrip)
{
    uint8_t u8 = 0xab;
    uint32_t u32 = 0xdeadbeef;
    uint64_t u64 = 0x0123456789abcdefull;
    int64_t i64 = -42;
    double f64 = 3.14159;
    std::string str = "hello checkpoint";
    std::vector<uint64_t> v{1, 2, 3, 5, 8};
    uint64_t other = 99;
    serial::Writer w;
    w.section(7);
    w(u8, u32, u64, i64, f64, str, v);
    w.section(9);
    w(other);

    serial::Reader r(w.finish(0x1122334455667788ull));
    EXPECT_EQ(r.fingerprint(), 0x1122334455667788ull);
    EXPECT_FALSE(r.section(8, /*optional=*/true));
    // Sections open in any order.
    uint8_t u8b = 0;
    uint32_t u32b = 0;
    uint64_t u64b = 0, otherb = 0;
    int64_t i64b = 0;
    double f64b = 0;
    std::string strb;
    std::vector<uint64_t> vb;
    r.section(9);
    r(otherb);
    EXPECT_EQ(otherb, 99u);
    r.section(7);
    r(u8b, u32b, u64b, i64b, f64b, strb, vb);
    EXPECT_EQ(u8b, 0xab);
    EXPECT_EQ(u32b, 0xdeadbeefu);
    EXPECT_EQ(u64b, 0x0123456789abcdefull);
    EXPECT_EQ(i64b, -42);
    EXPECT_EQ(f64b, 3.14159);
    EXPECT_EQ(strb, "hello checkpoint");
    EXPECT_EQ(vb, v);
}

TEST_F(SnapshotTest, ReaderRejectsCorruptedSection)
{
    serial::Writer w;
    w.section(1);
    for (uint64_t i = 0; i < 64; ++i)
        w(i);
    std::string image = w.finish(7);
    image[image.size() / 2] ^= 0x40; // flip one payload bit
    EXPECT_THROW({ serial::Reader r(std::move(image)); }, SimError);
}

TEST_F(SnapshotTest, PreviousFormatVersionRefused)
{
    // Version 8 keeps one MSHR slot per 128-byte line (version 7 packed
    // each event queue as one heap, version 6 each cache way into one
    // 8-byte word): an older image must be refused at the header, never
    // parsed against the new layout.
    serial::Writer w;
    w.section(1);
    uint64_t one = 1;
    w(one);
    std::string image = w.finish(7);
    EXPECT_EQ(serial::kFormatVersion, 8u);
    const uint32_t prev = serial::kFormatVersion - 1;
    std::memcpy(&image[8], &prev, sizeof prev); // after the 8-byte magic
    try {
        serial::Reader r(std::move(image));
        FAIL() << "previous format version accepted";
    } catch (const SimError &e) {
        EXPECT_NE(e.report().find("format version 7, this build reads "
                                  "version 8"),
                  std::string::npos)
            << e.report();
    }
}

TEST_F(SnapshotTest, ConfigFingerprintPinned)
{
    // Checkpoints and serve journals carry this value; it must not move
    // when the hashing code is rewritten (LADM_SHARDS is unset here).
    EXPECT_EQ(snapshot::configFingerprint(presets::multiGpu4x4()),
              0xfd316b11905b897cull);
}

TEST_F(SnapshotTest, CorruptedCheckpointFailsRecoverably)
{
    const std::string ckpt = tmpPath("corrupt.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 2; // VecAdd events all sit early
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), snapshot::Interrupted);

    std::string image = slurp(ckpt);
    ASSERT_FALSE(image.empty());
    image[image.size() / 2] ^= 0x01;
    {
        std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
        out << image;
    }

    // A bit-flipped checkpoint surfaces as a recoverable SimError (CRC
    // mismatch), never as garbage state or a crash.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), SimError);
}

TEST_F(SnapshotTest, FingerprintMismatchRefused)
{
    const std::string ckpt = tmpPath("fp.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 2; // VecAdd events all sit early
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), snapshot::Interrupted);

    // Same workload, different machine: the restore must refuse.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    SystemConfig other = presets::multiGpu4x4();
    other.l2SizePerChiplet *= 2;
    auto w = workloads::makeWorkload("VecAdd", 0.2);
    EXPECT_THROW(runExperiment(*w, Policy::Ladm, other), SimError);
}

TEST_F(SnapshotTest, RequireCheckpointableRefusesTracing)
{
    TelemetryOptions topts;
    topts.traceOutPath = "trace.json";
    SystemConfig cfg = presets::multiGpu4x4();
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
    topts = TelemetryOptions{};
    topts.obsHeatmap = true;
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
    topts = TelemetryOptions{};
    cfg.hbmCapacityPerNode = 1 << 20;
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
}

TEST_F(SnapshotTest, RunMainMapsInterruptedToExitCode)
{
    const int rc = snapshot::runMain([]() -> int {
        throw snapshot::Interrupted("x.ckpt", 123);
    });
    EXPECT_EQ(rc, snapshot::kExitCheckpointed);
}

TEST_F(SnapshotTest, ParseArgsStripsFlags)
{
    const char *raw[] = {"prog", "--checkpoint-every", "5000",
                         "--checkpoint-out=a.ckpt", "--resume", "b.ckpt",
                         "keep-me", nullptr};
    char *argv[8];
    for (int i = 0; i < 7; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    argv[7] = nullptr;
    int argc = 7;
    opt::parse(argc, argv, opt::Checkpoint);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "keep-me");
    EXPECT_EQ(snapshot::options().every, 5000u);
    EXPECT_EQ(snapshot::options().out, "a.ckpt");
    EXPECT_EQ(snapshot::options().resume, "b.ckpt");
}

TEST_F(SnapshotTest, RngStateRoundTrip)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    serial::Writer w;
    w.section(1);
    a.io(w);
    const uint64_t expect0 = a.next();
    const uint64_t expect1 = a.next();

    serial::Reader r(w.finish(0));
    r.section(1);
    Rng b(1); // different seed; the load must fully overwrite
    b.io(r);
    EXPECT_EQ(b.next(), expect0);
    EXPECT_EQ(b.next(), expect1);
}

// --- hostile images ---------------------------------------------------------

TEST_F(SnapshotTest, HugeContainerCountIsSimError)
{
    // A CRC-valid image claiming 2^60 heap events must be refused as a
    // corrupt checkpoint before anything is allocated.
    serial::Writer w;
    w.section(1);
    uint64_t seq = 0, heap_events = uint64_t{1} << 60;
    w(seq, heap_events);
    serial::Reader r(w.finish(0));
    r.section(1);
    EventQueue<uint64_t> q;
    EXPECT_THROW(q.io(r), SimError);
}

TEST_F(SnapshotTest, OutOfRangeEnumIsSimError)
{
    serial::Writer w;
    w.section(1);
    uint64_t entries = 1;
    std::string path = "x";
    double value = 1.0;
    uint32_t kind = 200; // StatKind has four values
    w(entries, path, value, kind);
    serial::Reader r(w.finish(0));
    r.section(1);
    telemetry::Snapshot snap;
    EXPECT_THROW(snap.io(r), SimError);
}

TEST_F(SnapshotTest, MismatchedFixedCountIsSimError)
{
    // A memory image from a machine with twice the SMs per chiplet: the
    // L1 count no longer matches and the load must say so.
    SystemConfig big = presets::multiGpu4x4();
    big.smsPerChiplet *= 2;
    GpuSystem from(big);
    serial::Writer w;
    w.section(1);
    from.mem().io(w);
    serial::Reader r(w.finish(0));
    r.section(1);
    GpuSystem into(presets::multiGpu4x4());
    try {
        into.mem().io(r);
        FAIL() << "mismatched L1 count accepted";
    } catch (const SimError &e) {
        EXPECT_NE(e.report().find("L1 caches"), std::string::npos)
            << e.report();
    }
}

/** A CRC-valid image of MSHR table fields, as MshrTable::io writes them. */
std::string
mshrImage(const std::vector<uint32_t> &keys,
          const std::vector<uint32_t> &offsets, size_t size)
{
    serial::Writer w;
    w.section(1);
    auto k = keys;
    auto o = offsets;
    Cycles base = 1000;
    w(k, o, size, base);
    return w.finish(0);
}

void
loadMshr(MshrTable &t, std::string image)
{
    serial::Reader r(std::move(image));
    r.section(1);
    t.io(r);
}

TEST_F(SnapshotTest, HostileMshrImagesAreSimError)
{
    constexpr size_t n = MshrTable::kMinCapacity;
    constexpr size_t per = MshrTable::kSectorsPerLine;
    std::vector<uint32_t> keys(n, 0), offs(n * per, 0);
    keys[3] = 0x41; // line 0x40: sector 1 ready at base + 5
    offs[3 * per + 1] = 5;
    {
        // The same fields, written by a table, load back and probe.
        MshrTable from, t;
        from.insert(0x40 * kLineSize + kSectorSize, 5, 0);
        serial::Writer w;
        w.section(1);
        from.io(w);
        loadMshr(t, w.finish(0));
        ASSERT_TRUE(t.find(0x40 * kLineSize + kSectorSize).has_value());
        EXPECT_EQ(*t.find(0x40 * kLineSize + kSectorSize), 5u);
        EXPECT_FALSE(t.find(0x40 * kLineSize).has_value());
        EXPECT_NO_THROW(loadMshr(t, mshrImage(keys, offs, 1)));
    }
    const auto refused = [](const std::string &image, const char *what) {
        MshrTable t;
        try {
            loadMshr(t, image);
            ADD_FAILURE() << what << ": image accepted";
        } catch (const SimError &e) {
            EXPECT_NE(e.report().find(what), std::string::npos)
                << e.report();
        }
    };
    // Key arrays that are not a power of two, or below the minimum.
    std::vector<uint32_t> odd = keys, odd_offs = offs;
    odd.push_back(0);
    odd_offs.resize(odd.size() * per, 0);
    refused(mshrImage(odd, odd_offs, 1), "MSHR table geometry");
    const std::vector<uint32_t> small(n / 2, 0), small_offs(n / 2 * per, 0);
    refused(mshrImage(small, small_offs, 0), "MSHR table geometry");
    // Offsets that are not exactly four per key.
    std::vector<uint32_t> short_offs(offs.begin(), offs.end() - 1);
    refused(mshrImage(keys, short_offs, 1), "MSHR table offsets per line");
    std::vector<uint32_t> long_offs = offs;
    long_offs.resize(offs.size() + per, 0);
    refused(mshrImage(keys, long_offs, 1), "MSHR table offsets per line");
    // An occupancy that does not count the keys.
    refused(mshrImage(keys, offs, 0), "MSHR table occupancy");
    refused(mshrImage(keys, offs, 2), "MSHR table occupancy");
    // A duplicate key would break the slot memo's exactness.
    std::vector<uint32_t> dup = keys;
    dup[200] = 0x41;
    refused(mshrImage(dup, offs, 2), "MSHR table keys unique");
    // An offset in an empty slot would survive a sweep as a keyless line.
    std::vector<uint32_t> stray = offs;
    stray[7 * per] = 9;
    refused(mshrImage(keys, stray, 1), "MSHR offsets in empty slots");
    // A table past 3/4 load; a full one would never end a probe.
    std::vector<uint32_t> full(n);
    for (size_t i = 0; i < n; ++i)
        full[i] = static_cast<uint32_t>(i + 1);
    refused(mshrImage(full, offs, n), "MSHR table load");
}

TEST_F(SnapshotTest, RandomMshrImagesLoadOrRaise)
{
    // Field-level fuzz: keys from a small space (duplicates common) or a
    // large one (duplicates rare), random loads, offsets and occupancy
    // claims. Every image either loads into a table whose finds and
    // inserts terminate, or raises SimError.
    Rng rng(404);
    int loaded = 0;
    for (int round = 0; round < 300; ++round) {
        const size_t n = MshrTable::kMinCapacity << rng.nextBounded(2);
        const uint64_t space = rng.nextBounded(2) ? 64 : uint64_t{1} << 30;
        std::vector<uint32_t> keys(n, 0), offs(n * 4, 0);
        size_t used = 0;
        for (size_t k = rng.nextBounded(n); k > 0; --k) {
            const size_t i = rng.nextBounded(n);
            used += keys[i] == 0;
            keys[i] = 1 + static_cast<uint32_t>(rng.nextBounded(space));
            offs[i * 4 + rng.nextBounded(4)] =
                static_cast<uint32_t>(rng.nextBounded(100));
        }
        if (rng.nextBounded(4) == 0)
            offs[rng.nextBounded(offs.size())] = 1;
        const size_t claim = rng.nextBounded(2) ? used : rng.nextBounded(n);
        MshrTable t;
        try {
            loadMshr(t, mshrImage(keys, offs, claim));
        } catch (const SimError &) {
            continue;
        }
        ++loaded;
        for (uint32_t k = 0; k < 64; ++k) {
            const Addr a = rng.nextBounded(4 * n) * kSectorSize;
            (void)t.find(a);
            t.insert(a, 2000 + rng.nextBounded(500), 1000 + k * 10);
        }
        EXPECT_LE(t.size() * 4, t.capacity() * 3);
    }
    EXPECT_GT(loaded, 30);
}

// --- state digest -----------------------------------------------------------

uint64_t
digestOf(PageTable &pt)
{
    serial::Hasher h;
    pt.io(h);
    return h.value();
}

TEST_F(SnapshotTest, PageTableDigestIgnoresInsertionOrder)
{
    // Same exceptions, inserted in opposite orders, then re-placed in
    // one order so every generation stamp matches: only the hash map's
    // internal order differs, and the digest must not see it.
    PageTable a, b;
    for (Addr p = 0; p < 64; ++p)
        a.place(p * 4096 * 3, 1, static_cast<NodeId>(p % 16));
    for (Addr p = 64; p-- > 0;)
        b.place(p * 4096 * 3, 1, static_cast<NodeId>(p % 7));
    for (PageTable *pt : {&a, &b})
        for (Addr p = 0; p < 64; ++p)
            pt->place(p * 4096 * 3, 1, static_cast<NodeId>(p % 16));
    ASSERT_EQ(a.numExceptions(), 64u);
    EXPECT_EQ(digestOf(a), digestOf(b));
    b.place(5 * 4096 * 3, 1, 15);
    EXPECT_NE(digestOf(a), digestOf(b));
}

/** 16 steps per warp over 64 pages spread across every node. */
class SpreadTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= 16)
            return false;
        const auto page = static_cast<Addr>((tb * 7 + step * 13 + warp) % 64);
        out.push_back({page * 4096 + static_cast<Addr>(warp) * 128,
                       step % 4 == 0});
        return true;
    }
};

/**
 * Checkpoint a kernel mid-run: the digest taken at save time must equal
 * the digest of a fresh machine restored from the image, and resuming
 * that machine must end at the uninterrupted run's digest.
 */
void
expectDigestSurvivesRestore(int shards)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = shards;
    LaunchDims dims;
    dims.grid = {64, 1};
    dims.block = {128, 1};
    const auto queues = KernelWideScheduler().assign(dims, cfg);
    std::vector<SpreadTrace> traces(static_cast<size_t>(shards));
    std::vector<TraceSource *> extra;
    for (size_t s = 1; s < traces.size(); ++s)
        extra.push_back(&traces[s]);
    auto place = [&](GpuSystem &sys) {
        for (Addr p = 0; p < 64; ++p)
            sys.mem().pageTable().place(p * 4096, 4096,
                                        static_cast<NodeId>(p % 16));
    };
    auto run = [&](GpuSystem &sys, bool resume) {
        return sys.runKernel(dims, traces[0], queues, L2InsertPolicy::RTwice,
                             true, extra, resume);
    };

    GpuSystem ref(cfg);
    place(ref);
    const Cycles end = run(ref, false).endCycle;

    const std::string path = tmpPath("digest.ckpt");
    const uint64_t fp = snapshot::configFingerprint(cfg);
    uint64_t at_save = 0;
    GpuSystem sys(cfg);
    place(sys);
    {
        snapshot::Checkpointer ck(path, 0, end / 2, fp, 0);
        ck.setContextSaver([&](serial::Writer &w) {
            at_save = sys.stateDigest();
            sys.io(w);
        });
        sys.attachCheckpointer(&ck);
        EXPECT_THROW(run(sys, false), snapshot::Interrupted);
        sys.attachCheckpointer(nullptr);
    }
    ASSERT_NE(at_save, 0u);
    EXPECT_EQ(sys.stateDigest(), at_save);

    // Host-side placement first, then the restore, as a resumed
    // experiment replays them.
    GpuSystem fresh(cfg);
    place(fresh);
    EXPECT_NE(fresh.stateDigest(), at_save);
    auto reader = std::make_shared<serial::Reader>(
        serial::Reader::fromFile(path));
    fresh.io(*reader);
    EXPECT_EQ(fresh.stateDigest(), at_save);

    snapshot::Checkpointer ck(path + ".unused", 0, 0, fp, 0);
    ck.armRestore(reader, 0);
    fresh.attachCheckpointer(&ck);
    EXPECT_EQ(run(fresh, true).endCycle, end);
    EXPECT_EQ(fresh.stateDigest(), ref.stateDigest());
}

TEST_F(SnapshotTest, StateDigestSurvivesRestoreSerial)
{
    expectDigestSurvivesRestore(1);
}

TEST_F(SnapshotTest, StateDigestSurvivesRestoreSharded)
{
    expectDigestSurvivesRestore(4);
}

// --- atomic sinks ----------------------------------------------------------

TEST_F(SnapshotTest, AtomicSinkParsesAfterSimulatedTornWrite)
{
    const std::string sink = tmpPath("stats.json");

    // Simulate a previous process killed mid-write: a torn temp file
    // next to the destination. Publication must ignore it and the
    // final document must parse.
    {
        std::ofstream torn(sink + ".tmp.99999");
        torn << "{\"schema\": \"ladm-stats-v1\", \"runs\": [{\"trunc";
    }

    TelemetryOptions topts;
    topts.statsJsonPath = sink;
    telemetry::session().configure(topts);
    (void)runOnce("VecAdd", 1, 0.1);
    telemetry::session().finalize();

    telemetry::JsonValue doc;
    std::string err;
    ASSERT_TRUE(telemetry::parseJson(slurp(sink), doc, &err)) << err;
    EXPECT_EQ(doc.get("generator").asString(), "ladm");
    EXPECT_EQ(doc.get("runs").items().size(), 1u);
}

TEST_F(SnapshotTest, AtomicWriteReplacesNotAppends)
{
    const std::string path = tmpPath("atomic.txt");
    ASSERT_TRUE(atomicWriteBytes(path, "first version, long content\n"));
    ASSERT_TRUE(atomicWriteBytes(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
}

// --- PDES fallback diagnostic ----------------------------------------------

class TinyTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId tb, int, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= 4)
            return false;
        out.push_back({static_cast<Addr>(tb) * 4096 +
                           static_cast<Addr>(step) * 32,
                       false});
        return true;
    }
};

TEST_F(SnapshotTest, PdesFallbackDiagnosticForFaultedShardedConfig)
{
    // --shards 4 plus fault injection: the engine must fall back to the
    // serial loop AND say so -- via the accessor, the published gauge,
    // and a human-readable detail naming the blocking feature.
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 4;
    cfg.faultSpec = "chiplet:5:fail@0";
    GpuSystem sys(cfg);
    ASSERT_EQ(sys.engineShards(), 4);
    sys.mem().pageTable().place(0, 1ull << 26, 0);

    LaunchDims dims;
    dims.grid = {32, 1};
    dims.block = {128, 1};
    KernelWideScheduler sched;
    TinyTrace trace;
    sys.runKernel(dims, trace, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice);

    EXPECT_EQ(sys.engine().pdesFallback(),
              KernelEngine::PdesFallback::MemoryIncompatible);
    EXPECT_NE(sys.engine().pdesFallbackDetail().find("fault"),
              std::string::npos);
    EXPECT_EQ(
        sys.registry().value("engine.pdes.fallback_reason").value_or(-1.0),
        3.0);
}

TEST_F(SnapshotTest, PdesNoFallbackPublishesNone)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 2;
    const RunMetrics m = runOnce("VecAdd", 2, 0.1);
    EXPECT_GT(m.cycles, 0u);
}

// --- watchdog post-mortem --------------------------------------------------

/** Never retires, never touches memory: spins at one simulated cycle. */
class HangingTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId, int, int64_t, std::vector<MemAccess> &) override
    {
        return true;
    }
};

TEST_F(SnapshotTest, WatchdogDumpsReplayableCheckpoint)
{
    check::ScopedEnable on;
    const uint64_t saved = check::watchdogLimit();
    check::setWatchdogLimit(10'000);

    const std::string ckpt = tmpPath("hung.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().every = 1u << 30; // armed, but never periodic

    SystemConfig cfg = presets::monolithic256();
    cfg.computeGapCycles = 0;
    auto chk = snapshot::makeRunCheckpointer(cfg);
    ASSERT_NE(chk, nullptr);

    GpuSystem sys(cfg);
    sys.attachCheckpointer(chk.get());
    sys.mem().pageTable().place(0, 1ull << 30, 0);
    HangingTrace trace;
    LaunchDims dims;
    dims.grid = {1, 1};
    dims.block = {32, 1};
    KernelWideScheduler sched;
    EXPECT_THROW(sys.runKernel(dims, trace, sched.assign(dims, cfg),
                               L2InsertPolicy::RTwice),
                 InvariantViolation);
    check::setWatchdogLimit(saved);

    // The hang left a complete, valid checkpoint behind for offline
    // replay with --resume <path>.postmortem --check.
    const std::string pm = slurp(ckpt + ".postmortem");
    ASSERT_FALSE(pm.empty());
    serial::Reader r(pm);
    EXPECT_TRUE(r.section(snapshot::kMeta, /*optional=*/true));
    EXPECT_TRUE(r.section(snapshot::kEngine, /*optional=*/true));
}

// --- resumable sweep journal ------------------------------------------------

TEST_F(SnapshotTest, SweepJournalReplaysCompletedCells)
{
    const std::string jnl = tmpPath("sweep.jnl");
    std::remove(jnl.c_str());

    std::vector<core::SweepCell> cells;
    {
        core::SweepCell c;
        c.workload = "VecAdd";
        c.policy = Policy::Ladm;
        c.cfg = presets::multiGpu4x4();
        c.scale = 0.1;
        cells.push_back(c);
        c.policy = Policy::Coda;
        cells.push_back(c);
    }

    core::setSweepJournalPath(jnl);
    const auto first = core::runSweep(cells, 1);
    ASSERT_EQ(first.size(), 2u);

    // Re-running the same grid replays both cells from the journal,
    // byte-identically.
    core::setSweepJournalPath(jnl);
    const auto second = core::runSweep(cells, 1);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(csvRow(first[0]), csvRow(second[0]));
    EXPECT_EQ(csvRow(first[1]), csvRow(second[1]));

    core::SweepJournal replay(jnl);
    EXPECT_EQ(replay.completedReplayed(), 2u);
    core::setSweepJournalPath("");
}

TEST_F(SnapshotTest, SweepJournalRequeuesInFlightAndTornLines)
{
    const std::string jnl = tmpPath("sweep_torn.jnl");
    std::remove(jnl.c_str());

    core::SweepCell done;
    done.workload = "VecAdd";
    done.policy = Policy::Ladm;
    done.cfg = presets::multiGpu4x4();
    done.scale = 0.1;
    core::SweepCell in_flight = done;
    in_flight.policy = Policy::Coda;

    // A journal from a killed sweep: one cell completed, the other was
    // still running (it left no record), and the kill tore the final
    // record (a length and half a CRC, no payload).
    {
        core::SweepJournal j(jnl);
        j.noteDone(core::cellKey(done), RunMetrics{});
    }
    {
        std::ofstream out(jnl, std::ios::app | std::ios::binary);
        out.write("\x40\x00\x00\x00\x12\x34", 6);
    }

    {
        core::SweepJournal replay(jnl);
        EXPECT_EQ(replay.completedReplayed(), 1u);
        EXPECT_NE(replay.completed(core::cellKey(done)), nullptr);
        EXPECT_EQ(replay.completed(core::cellKey(in_flight)), nullptr);
        // The torn tail is gone: the re-run cell's record extends a
        // valid stream.
        replay.noteDone(core::cellKey(in_flight), RunMetrics{});
    }
    core::SweepJournal again(jnl);
    EXPECT_EQ(again.completedReplayed(), 2u);
    EXPECT_NE(again.completed(core::cellKey(in_flight)), nullptr);
}

} // namespace
} // namespace ladm
