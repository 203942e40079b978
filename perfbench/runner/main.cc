/**
 * @file
 * perfbench_runner: runs one benchmark workload and writes its raw
 * measurements as JSON (and, traced, its spans as TSV) for run.py.
 *
 *   perfbench_runner --workload W --seed N --seconds S --trace 0|1
 *                    --out PATH [--spans PATH]
 *
 * Workloads: grid_small, sim_remote, sim_local, serve_mix. The socket
 * and journals of serve_mix go to the working directory.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "runner.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload W --seed N "
                 "--seconds S --trace 0|1 --out PATH [--spans PATH]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    startCores(); // before any workload pins a thread
    RunOptions opts;
    std::string out_path, spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            opts.workload = v;
        else if (a == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(v);
        else if (a == "--trace")
            opts.trace = std::strcmp(v, "0") != 0;
        else if (a == "--out")
            out_path = v;
        else if (a == "--spans")
            spans_path = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (out_path.empty())
        usage("--out is required");
    if (opts.workload != "serve_mix" && !isSimWorkload(opts.workload))
        usage(("unknown workload '" + opts.workload + "'").c_str());

    try {
        std::ofstream os(out_path);
        if (!os)
            usage(("cannot write " + out_path).c_str());
        std::deque<SpanRecorder> spans;
        ladm::telemetry::JsonWriter w(os, 0);
        w.beginObject();
        w.kv("workload", opts.workload);
        w.kv("seed", opts.seed);
        w.kv("trace", opts.trace);
        w.key("sections").beginArray();
        if (opts.workload == "serve_mix") {
            runServeMix(opts, w, spans);
            if (opts.trace)
                runSimProbe(w, spans);
        } else {
            runSimWorkload(opts, w, spans);
            if (opts.trace) {
                // Probes cover the layers this workload never reaches.
                if (opts.workload != "sim_local")
                    runSimProbe(w, spans);
                runServeProbe(opts, w, spans);
            }
        }
        w.endArray();
        w.endObject();
        os << '\n';
        if (!os.flush())
            throw std::runtime_error("short write to " + out_path);

        if (!spans_path.empty()) {
            std::ofstream ss(spans_path);
            for (const SpanRecorder &r : spans)
                r.write(ss);
            if (!ss.flush())
                throw std::runtime_error("short write to " + spans_path);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }
    return 0;
}
