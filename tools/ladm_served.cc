/**
 * @file
 * ladm-served: the placement-advisor daemon. Binds a Unix or TCP
 * socket, replays the decision journal into the cache, and answers
 * Place frames until SIGTERM/SIGINT, then drains gracefully and exits
 * with snapshot::kExitCheckpointed (75) -- the same "stopped on
 * purpose, state is durable, restart me" contract the checkpointed
 * simulator binaries use, so one wrapper script supervises both.
 *
 * Flags: `ladm-served --help` lists them (listen address, topology,
 * worker pool, queue bound, deadline and budget, journal, serve faults).
 *
 * The resolved address is printed as "listening <address>" on stdout
 * (meaningful for tcp port 0) before the daemon blocks.
 */

#include <iostream>
#include <string>

#include "config/options.hh"
#include "serve/server.hh"
#include "snapshot/snapshot.hh"

int
main(int argc, char **argv)
{
    using namespace ladm;

    serve::ServerOptions opts;
    return snapshot::runMain([&] {
        opt::parse(
            argc, argv, 0,
            {opt::local("--listen", &opts.listen,
                        "unix:/path or tcp:host:port (default "
                        "unix:ladm-serve.sock)"),
             opt::local("--topology", &opts.topology,
                        "preset for requests naming none (default "
                        "multi-gpu-4x4)"),
             opt::local("--workers", &opts.workers,
                        "classifier worker threads (default 4)"),
             opt::local("--queue", &opts.queueCapacity,
                        "admission queue bound (default 64)"),
             opt::local("--deadline-us", &opts.defaultDeadlineUs,
                        "deadline of requests carrying none (default 100000)"),
             opt::local("--budget-us", &opts.classifierBudgetUs,
                        "classifier budget before degrading (default 25000)",
                        0),
             opt::local("--retry-after-ms", &opts.retryAfterMs,
                        "retry hint on BUSY replies (default 20)", 0),
             opt::local("--max-conns", &opts.maxConnections,
                        "concurrently served connections (default 256)"),
             opt::local("--journal", &opts.journalPath,
                        "crash-safe decision journal (default: none)"),
             opt::local("--serve-faults", &opts.faultSpec,
                        "serve-side fault injection spec")});
        snapshot::installSignalHandlers();
        serve::Server server(opts);
        server.start();
        std::cout << "listening " << server.address() << std::endl;
        server.serveUntilStopped();
        // A requested stop is the graceful-drain contract: committed
        // state is on disk, exit "resumable" like the checkpointed
        // simulators do.
        return snapshot::stopRequested() ? snapshot::kExitCheckpointed
                                         : 0;
    });
}
