/**
 * @file
 * Tests for the crash-safe record log (common/record_log.hh) and the
 * content-keyed sweep journal built on it: torn and corrupt tails,
 * foreign files, model-version resets, and which cells a journal
 * replays into which grid.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/record_log.hh"
#include "common/sim_error.hh"
#include "config/presets.hh"
#include "core/sweep_journal.hh"
#include "core/sweep_runner.hh"
#include "telemetry/session.hh"

namespace ladm
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    const auto *info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "record_log_" + info->name() + "_" + name +
           "_" + std::to_string(::getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Open @p path as a sweep log and return the payloads it replays. */
std::vector<std::string>
replay(const std::string &path, LogKind kind = LogKind::Sweep)
{
    std::vector<std::string> got;
    RecordLog log;
    log.open(path, kind,
             [&](std::string_view p) { got.emplace_back(p); });
    return got;
}

const std::vector<std::string> kRecords = {"first", "",
                                           std::string(300, 'x')};

/** A log holding kRecords; returns its bytes. */
std::string
writeThree(const std::string &path)
{
    std::remove(path.c_str());
    RecordLog log;
    EXPECT_EQ(log.open(path, LogKind::Sweep, nullptr), 0u);
    for (const std::string &r : kRecords)
        log.append(r);
    log.close();
    return slurp(path);
}

// --- record log -------------------------------------------------------------

TEST(RecordLog, EveryTruncationReplaysTheWholeRecordsBeforeTheCut)
{
    const std::string path = tmpPath("log");
    const std::string image = writeThree(path);
    ASSERT_EQ(replay(path), kRecords);

    // Where each record ends, in bytes.
    std::vector<size_t> ends;
    size_t end = RecordLog::kHeaderBytes;
    for (const std::string &r : kRecords)
        ends.push_back(end += 8 + r.size());
    ASSERT_EQ(ends.back(), image.size());

    for (size_t cut = 0; cut <= image.size(); ++cut) {
        SCOPED_TRACE(cut);
        spit(path, image.substr(0, cut));
        size_t whole = 0;
        while (whole < ends.size() && ends[whole] <= cut)
            ++whole;
        std::vector<std::string> got;
        ASSERT_NO_THROW(got = replay(path));
        EXPECT_EQ(got, std::vector<std::string>(kRecords.begin(),
                                                kRecords.begin() + whole));
        // The cut was repaired: the file is now exactly those records.
        const size_t kept = whole ? ends[whole - 1] : RecordLog::kHeaderBytes;
        EXPECT_EQ(slurp(path), image.substr(0, kept));
    }
    std::remove(path.c_str());
}

TEST(RecordLog, FlippedPayloadByteStopsReplayAtThatRecord)
{
    const std::string path = tmpPath("log");
    std::string image = writeThree(path);
    // Third record's payload starts after the header, two record heads
    // and the first two payloads.
    const size_t third =
        RecordLog::kHeaderBytes + 3 * 8 + kRecords[0].size() +
        kRecords[1].size();
    image[third + 17] ^= 0x01;
    spit(path, image);
    EXPECT_EQ(replay(path),
              std::vector<std::string>(kRecords.begin(),
                                       kRecords.begin() + 2));

    // Flipping the first payload byte loses every record.
    image = writeThree(path);
    image[RecordLog::kHeaderBytes + 8] ^= 0x80;
    spit(path, image);
    EXPECT_TRUE(replay(path).empty());
    std::remove(path.c_str());
}

void
expectJournalCorrupt(const std::string &path, LogKind kind)
{
    const std::string before = slurp(path);
    try {
        replay(path, kind);
        ADD_FAILURE() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_EQ(e.code(), ErrCode::JournalCorrupt);
    }
    EXPECT_EQ(slurp(path), before); // never overwritten
}

TEST(RecordLog, ForeignMagicOrWrongKindIsJournalCorrupt)
{
    const std::string path = tmpPath("log");
    writeThree(path);
    expectJournalCorrupt(path, LogKind::Decision);

    std::string image = slurp(path);
    image[0] = 'X';
    spit(path, image);
    expectJournalCorrupt(path, LogKind::Sweep);

    spit(path, "ladm-sweep-journal-v1\ndone 00 00\n"); // the old format
    expectJournalCorrupt(path, LogKind::Sweep);
    std::remove(path.c_str());
}

TEST(RecordLog, ModelVersionMismatchReplaysNothingAndLeavesAnEmptyLog)
{
    const std::string path = tmpPath("log");
    std::string image = writeThree(path);
    const uint32_t other = kModelVersion + 1;
    image.replace(12, 4, reinterpret_cast<const char *>(&other), 4);
    spit(path, image);

    EXPECT_TRUE(replay(path).empty());
    // What is left is a valid, empty log of this model version.
    EXPECT_EQ(slurp(path), image.substr(0, 12) +
                               std::string(reinterpret_cast<const char *>(
                                               &kModelVersion),
                                           4));
    {
        RecordLog log;
        EXPECT_EQ(log.open(path, LogKind::Sweep, nullptr), 0u);
        log.append("after");
    }
    EXPECT_EQ(replay(path), std::vector<std::string>{"after"});
    std::remove(path.c_str());
}

// --- content-keyed sweep journal --------------------------------------------

core::SweepCell
cell(const char *workload, Policy policy, const SystemConfig &cfg)
{
    core::SweepCell c;
    c.workload = workload;
    c.policy = policy;
    c.cfg = cfg;
    c.scale = 0.1;
    return c;
}

std::vector<core::SweepCell>
grid()
{
    const SystemConfig multi = presets::multiGpu4x4();
    const SystemConfig mono = presets::monolithic256();
    return {cell("VecAdd", Policy::Coda, multi),
            cell("VecAdd", Policy::Ladm, multi),
            cell("SRAD", Policy::Ladm, multi),
            cell("VecAdd", Policy::KernelWide, mono)};
}

class SweepJournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::session().resetForTest();
        jnl_ = tmpPath("sweep.jnl");
        std::remove(jnl_.c_str());
    }
    void
    TearDown() override
    {
        core::setSweepJournalPath("");
        telemetry::session().resetForTest();
        std::remove(jnl_.c_str());
    }

    /** Run @p cells on a freshly opened journal; the sweep's stderr. */
    std::string
    sweep(const std::vector<core::SweepCell> &cells,
          std::vector<RunMetrics> *out = nullptr)
    {
        core::setSweepJournalPath(jnl_);
        ::testing::internal::CaptureStderr();
        std::vector<RunMetrics> res = core::runSweep(cells, 2);
        const std::string err = ::testing::internal::GetCapturedStderr();
        if (out)
            *out = std::move(res);
        return err;
    }

    static std::string
    replayed(size_t hits, size_t cells)
    {
        return "sweep journal: " + std::to_string(hits) + " of " +
               std::to_string(cells) + " cell(s) replayed";
    }

    std::string jnl_;
};

TEST_F(SweepJournalTest, CellsReplayIntoAnyGridInAnyOrder)
{
    const auto cells = grid();
    std::vector<RunMetrics> first;
    EXPECT_NE(sweep(cells, &first).find(replayed(0, 4)), std::string::npos);

    // The same cells in reverse order, and a smaller grid holding some
    // of them (as fig10's cells are all fig09 cells): nothing simulates.
    std::vector<core::SweepCell> reversed(cells.rbegin(), cells.rend());
    std::vector<RunMetrics> second;
    EXPECT_NE(sweep(reversed, &second).find(replayed(4, 4)),
              std::string::npos);
    for (size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(csvRow(second[i]), csvRow(first[cells.size() - 1 - i]));
    EXPECT_NE(sweep({cells[2], cells[0]}).find(replayed(2, 2)),
              std::string::npos);
}

TEST_F(SweepJournalTest, EditedPresetReRunsExactlyItsCells)
{
    auto cells = grid();
    sweep(cells);
    // One field of the multi-GPU preset changes; its name does not.
    for (core::SweepCell &c : cells)
        if (c.cfg.name == presets::multiGpu4x4().name)
            c.cfg.l2SizePerChiplet /= 2;
    EXPECT_NE(sweep(cells).find(replayed(1, 4)), std::string::npos);
    // Now both versions of the preset are on record.
    EXPECT_NE(sweep(cells).find(replayed(4, 4)), std::string::npos);
    EXPECT_NE(sweep(grid()).find(replayed(4, 4)), std::string::npos);
}

TEST_F(SweepJournalTest, AnotherModelVersionReplaysNothing)
{
    const auto cells = grid();
    sweep(cells);
    core::setSweepJournalPath("");
    std::string image = slurp(jnl_);
    const uint32_t other = kModelVersion + 1;
    image.replace(12, 4, reinterpret_cast<const char *>(&other), 4);
    spit(jnl_, image);
    EXPECT_NE(sweep(cells).find(replayed(0, 4)), std::string::npos);
    EXPECT_NE(sweep(cells).find(replayed(4, 4)), std::string::npos);
}

TEST_F(SweepJournalTest, ReplayedCellsStillReachArmedSinks)
{
    const auto cells = grid();
    std::vector<RunMetrics> plain;
    sweep(cells, &plain);
    ASSERT_FALSE(plain[0].hasLatency);

    // A stats sink and latency attribution armed: every cell must land
    // in the stats document and carry its latency columns, so none can
    // come from the journal.
    TelemetryOptions opts;
    opts.statsJsonPath = tmpPath("stats.json");
    opts.obsAttribution = true;
    telemetry::session().configure(opts);
    std::vector<RunMetrics> armed;
    EXPECT_NE(sweep(cells, &armed).find(replayed(0, 4)), std::string::npos);
    EXPECT_EQ(telemetry::session().numRuns(), cells.size());
    for (const RunMetrics &m : armed) {
        EXPECT_TRUE(m.hasLatency) << m.workload << "/" << m.policy;
        EXPECT_EQ(m.cycles, plain[&m - armed.data()].cycles);
    }
    telemetry::session().resetForTest();
    std::remove(opts.statsJsonPath.c_str());
}

} // namespace
} // namespace ladm
