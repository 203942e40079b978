/**
 * @file
 * ladm-report: render the JSON documents the telemetry/observability
 * sinks emit (--timeline-out, --stats-json) into a human-readable
 * markdown report — per-component latency percentile tables, the
 * requester x home locality heatmap, the hot-page table, and unicode
 * sparklines of every timeline path.
 *
 * Usage:
 *   ladm-report run.timeline.json [more.json ...] [-o report.md]
 *
 * Schemas understood: ladm-timeline-v1 (full report) and ladm-stats-v1
 * (run summary). Unknown schemas get a one-line notice instead of a
 * parse error, so the tool stays usable across future schema bumps.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "config/options.hh"
#include "telemetry/json_reader.hh"

namespace
{

using ladm::telemetry::JsonValue;

/** Unicode eighth-blocks, the plot axis of the timeline section. */
const char *const kSparks[] = {"▁", "▂", "▃", "▄",
                               "▅", "▆", "▇", "█"};

std::string
sparkline(const std::vector<double> &vals)
{
    double max = 0.0;
    for (const double v : vals)
        max = std::max(max, v);
    std::string out;
    for (const double v : vals) {
        const double frac = max > 0.0 ? std::max(v, 0.0) / max : 0.0;
        const int idx =
            std::min(7, static_cast<int>(frac * 7.999));
        out += kSparks[idx];
    }
    return out;
}

std::string
fmt(double v)
{
    std::ostringstream os;
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
    } else {
        os.precision(4);
        os << v;
    }
    return os.str();
}

std::string
hex(double v)
{
    std::ostringstream os;
    os << "0x" << std::hex << static_cast<unsigned long long>(v);
    return os.str();
}

void
renderLatTable(std::ostream &os, const JsonValue &components)
{
    os << "| component | samples | mean | p50 | p95 | p99 | max |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|\n";
    for (const std::string &name : components.keys()) {
        const JsonValue &c = components.get(name);
        if (c.num("samples") == 0)
            continue;
        os << "| " << name << " | " << fmt(c.num("samples")) << " | "
           << fmt(c.num("mean")) << " | " << fmt(c.num("p50")) << " | "
           << fmt(c.num("p95")) << " | " << fmt(c.num("p99")) << " | "
           << fmt(c.num("max")) << " |\n";
    }
    os << "\n";
}

void
renderTimeline(std::ostream &os, const JsonValue &tl)
{
    const JsonValue &paths = tl.get("paths");
    const JsonValue &windows = tl.get("windows");
    os << "### Timeline (" << windows.size() << " windows, "
       << fmt(tl.num("window_cycles")) << " cycles each";
    if (tl.num("merges") > 0)
        os << ", " << fmt(tl.num("merges")) << " merge passes";
    os << ")\n\n";
    if (windows.size() == 0) {
        os << "_No windows recorded._\n\n";
        return;
    }
    os << "| path | activity | total |\n";
    os << "|---|---|---:|\n";
    for (size_t p = 0; p < paths.size(); ++p) {
        std::vector<double> series;
        double total = 0.0;
        for (size_t w = 0; w < windows.size(); ++w) {
            const double d = windows.at(w).get("delta").at(p).asNumber();
            series.push_back(d);
            total += d;
        }
        os << "| `" << paths.at(p).asString() << "` | " << sparkline(series)
           << " | " << fmt(total) << " |\n";
    }
    os << "\n";
}

void
renderHeatmap(std::ostream &os, const JsonValue &hm)
{
    const int nodes = static_cast<int>(hm.num("nodes"));
    const JsonValue &matrix = hm.get("matrix");
    os << "### Locality heatmap (requester × home fetches)\n\n";
    os << "| req\\home |";
    for (int h = 0; h < nodes; ++h)
        os << " " << h << " |";
    os << " local% |\n|---|";
    for (int h = 0; h < nodes; ++h)
        os << "---:|";
    os << "---:|\n";
    for (int r = 0; r < nodes; ++r) {
        double row_total = 0.0, local = 0.0;
        os << "| **" << r << "** |";
        for (int h = 0; h < nodes; ++h) {
            const double v = matrix.at(r).at(h).asNumber();
            row_total += v;
            if (h == r)
                local = v;
            os << " " << fmt(v) << " |";
        }
        os << " " << fmt(row_total > 0 ? 100.0 * local / row_total : 0.0)
           << " |\n";
    }
    os << "\n";

    const JsonValue &blocks = hm.get("blocks");
    if (blocks.size() > 0) {
        os << "### Datablocks\n\n";
        os << "| block | fetches | remote | pages |\n";
        os << "|---|---:|---:|---:|\n";
        for (size_t i = 0; i < blocks.size(); ++i) {
            const JsonValue &b = blocks.at(i);
            os << "| " << b.str("name") << " | " << fmt(b.num("fetches"))
               << " | " << fmt(b.num("remote_fetches")) << " | "
               << fmt(b.num("pages")) << " |\n";
        }
        os << "\n";
    }

    const JsonValue &pages = hm.get("hot_pages");
    if (pages.size() > 0) {
        os << "### Hot pages (top " << pages.size() << ")\n\n";
        os << "| page | block | home | fetches | remote |\n";
        os << "|---|---|---:|---:|---:|\n";
        for (size_t i = 0; i < pages.size(); ++i) {
            const JsonValue &p = pages.at(i);
            const std::string block =
                p.str("block").empty() ? "-" : p.str("block");
            os << "| `" << hex(p.num("page")) << "` | " << block << " | "
               << fmt(p.num("home")) << " | " << fmt(p.num("fetches"))
               << " | " << fmt(p.num("remote_fetches")) << " |\n";
        }
        os << "\n";
    }
    if (hm.num("dropped_page_fetches") > 0) {
        os << "_" << fmt(hm.num("dropped_page_fetches"))
           << " fetches hit pages past the tracking cap and are counted "
              "only in the matrix._\n\n";
    }
}

void
renderTimelineRun(std::ostream &os, const JsonValue &run, size_t index)
{
    os << "## Run " << index << ": " << run.str("workload") << " / "
       << run.str("policy") << "\n\n";
    os << "- nodes: " << fmt(run.num("nodes"))
       << ", page size: " << fmt(run.num("page_size"))
       << ", end cycle: " << fmt(run.num("end_cycle")) << "\n\n";
    // A run carries only the sections whose sinks were armed: a
    // --obs-attribution run has no heatmap, a --obs-heatmap run has no
    // latency table, and a windows-only run has just the timeline.
    // Render what exists and note what doesn't, so a partial document
    // reads as deliberate rather than truncated.
    if (run.has("timeline"))
        renderTimeline(os, run.get("timeline"));
    else
        os << "_No timeline in this run (windowed sampling was not "
              "armed)._\n\n";
    if (run.has("latency")) {
        const JsonValue &lat = run.get("latency");
        os << "### Access latency by component (cycles, "
           << fmt(lat.num("samples")) << " accesses)\n\n";
        renderLatTable(os, lat.get("components"));
        const JsonValue &classes = lat.get("classes");
        for (const std::string &cls : classes.keys()) {
            const JsonValue &comps = classes.get(cls);
            if (comps.get("total").num("samples") == 0)
                continue;
            os << "#### Traffic class `" << cls << "`\n\n";
            renderLatTable(os, comps);
        }
    }
    else {
        os << "_No latency attribution in this run (rerun with "
              "--obs-attribution)._\n\n";
    }
    if (run.has("heatmap"))
        renderHeatmap(os, run.get("heatmap"));
    else
        os << "_No locality heatmap in this run (rerun with "
              "--obs-heatmap)._\n\n";
}

void
renderStatsRun(std::ostream &os, const JsonValue &run, size_t index)
{
    os << "## Run " << index << ": " << run.str("workload") << " / "
       << run.str("policy") << "\n\n";
    os << "- system: " << run.str("system")
       << ", scheduler: " << run.str("scheduler")
       << ", cycles: " << fmt(run.num("cycles"))
       << ", TBs: " << fmt(run.num("tb_count"))
       << ", kernels: " << run.get("kernels").size() << "\n\n";
    const JsonValue &fin = run.get("final");
    const JsonValue &mem = fin.get("mem");
    if (mem.isObject()) {
        os << "| stat | value |\n|---|---:|\n";
        for (const char *k :
             {"fetch_local", "fetch_remote", "offchip_fraction",
              "l1_accesses", "l1_hits", "l2_accesses", "l2_hits",
              "mshr_merges"}) {
            if (mem.has(k))
                os << "| mem." << k << " | " << fmt(mem.num(k)) << " |\n";
        }
        os << "\n";
    }
}

int
renderFile(std::ostream &os, const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        std::cerr << "ladm-report: cannot open '" << path << "'\n";
        return 1;
    }
    std::stringstream buf;
    buf << f.rdbuf();
    JsonValue doc;
    std::string err;
    if (!ladm::telemetry::parseJson(buf.str(), doc, &err)) {
        std::cerr << "ladm-report: " << path << ": " << err << "\n";
        return 1;
    }
    const std::string schema = doc.str("schema");
    os << "# " << path << "\n\n";
    os << "_schema: " << (schema.empty() ? "(none)" : schema) << "_\n\n";
    const JsonValue &runs = doc.get("runs");
    if (schema == "ladm-timeline-v1") {
        for (size_t i = 0; i < runs.size(); ++i)
            renderTimelineRun(os, runs.at(i), i);
    } else if (schema == "ladm-stats-v1") {
        for (size_t i = 0; i < runs.size(); ++i)
            renderStatsRun(os, runs.at(i), i);
    } else {
        os << "_Unknown schema; nothing to render._\n\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return ladm::check::runMain([&] {
        const char *usage = "<run.json> [more.json ...] [-o report.md]";
        std::string out_path;
        ladm::opt::parse(argc, argv, 0,
                         {ladm::opt::local("-o", &out_path,
                                           "write the markdown here (default "
                                           "'-' = stdout)")},
                         usage);
        if (argc < 2) {
            std::cerr << "usage: ladm-report " << usage << "\n";
            return 1;
        }

        std::ofstream of;
        std::ostream *os = &std::cout;
        if (!out_path.empty() && out_path != "-") {
            of.open(out_path);
            if (!of) {
                std::cerr << "ladm-report: cannot write '" << out_path
                          << "'\n";
                return 1;
            }
            os = &of;
        }

        int rc = 0;
        for (int i = 1; i < argc; ++i)
            rc |= renderFile(*os, argv[i]);
        return rc;
    });
}
