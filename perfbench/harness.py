"""Turns the runner's raw measurements into the benchmark's metrics.

Everything here is a pure function of the runner's output (its JSON
document and, for traced runs, its span log), so the rules can be tested
without running the simulator: see tests/test_harness.py.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50, 90, 99)
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

# Fields of a cell digest, in the order they are reported.
DIGEST_FIELDS = ("cycles", "warp_steps", "sector_accesses", "uvm_faults",
                 "fetch_local", "fetch_remote", "l1_hit_rate",
                 "l2_hit_rate")


def nearest_rank(sorted_values, pct):
    """Value at percentile `pct` (nearest-rank) and its 1-based rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], rank


def tail(values):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND
    samples beyond it.

    Returns (label, value, n, beyond). When no percentile qualifies
    (fewer than MIN_BEYOND + 1 samples) the tail is the maximum, labelled
    "max", with 0 samples beyond.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    best = ("max", s[-1], n, 0)
    for pct in TAIL_LADDER:
        value, rank = nearest_rank(s, pct)
        if n - rank >= MIN_BEYOND:
            best = ("p%d" % pct, value, n, n - rank)
    return best


def percentile(values, pct):
    if not values:
        return 0.0
    return nearest_rank(sorted(values), pct)[0]


def diff_digest(want, got):
    """Names of the digest fields where `got` differs from `want`."""
    return [f for f in DIGEST_FIELDS if want.get(f) != got.get(f)]


def _sections(raw, kind=None):
    return [s for s in raw["sections"] if kind is None or s["kind"] == kind]


def _section(raw, role, kind=None):
    for s in _sections(raw, kind):
        if s["role"] == role:
            return s
    return None


def check_sim_section(section, golden):
    """Judge every operation of a sim section.

    An operation fails when its cell raised, when its digest differs from
    the recorded one, when its cell ran on the sharded engine and the
    engine fell back to the serial loop or used another shard count than
    asked, or (traced) when the layer-by-layer composition of its cell
    disagreed with runExperiment.

    Returns (attempted, failed, problems) where problems are readable
    lines naming the cell and the differing fields.
    """
    problems = []
    bad_ids = set()
    for p in section.get("pdes", []):
        want = int(p["id"].rsplit("/shards", 1)[1])
        if p["fallback"] != 0 or p["shards"] != want:
            bad_ids.add(p["id"])
            problems.append(
                "%s: engine.pdes.fallback_reason=%g engine.pdes.shards=%g "
                "(want 0 and %d)" % (p["id"], p["fallback"], p["shards"],
                                     want))
    for m in section.get("traced", {}).get("mismatches", []):
        bad_ids.add(m["id"])
        problems.append("%s: composition differs from runExperiment in %s"
                        % (m["id"], ", ".join(m["fields"])))
    attempted = failed = 0
    for op in section["ops"]:
        attempted += 1
        ok = op["id"] not in bad_ids
        if "error" in op:
            ok = False
            problems.append("%s (pass %d): %s" % (op["id"], op["pass"],
                                                  op["error"]))
        else:
            want = golden.get(op["id"])
            if want is None:
                ok = False
                problems.append("%s: no recorded digest" % op["id"])
            else:
                fields = diff_digest(want, op["digest"])
                if fields:
                    ok = False
                    problems.append("%s (pass %d): digest differs in %s" % (
                        op["id"], op["pass"], ", ".join(
                            "%s %s != %s" % (f, op["digest"].get(f),
                                             want.get(f)) for f in fields)))
        failed += 0 if ok else 1
    return attempted, failed, problems


def check_serve_section(section):
    """Every request is an operation; all but correct ok replies fail."""
    out = section["outcomes"]
    attempted = section["requests"]
    failed = attempted - out["ok"]
    problems = []
    if failed:
        problems.append(
            "serve: %d mismatched, %d degraded, %d busy, %d errors%s" % (
                out["mismatch"], out["degraded"], out["busy"], out["error"],
                (" (first mismatch: %s)" % section["first_mismatch"])
                if section["first_mismatch"] else ""))
    return attempted, failed, problems


def count_ops(raw, golden):
    """Operations attempted and failed over every section of a run."""
    attempted = failed = 0
    problems = []
    for s in raw["sections"]:
        if s["kind"] == "sim":
            g = golden.get(raw["workload"] if s["role"] == "main"
                           else "probe", {})
            a, f, p = check_sim_section(s, g)
        else:
            a, f, p = check_serve_section(s)
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems


def seed_invariance(raw_a, raw_b):
    """Cells whose digests differ between two runs of one sim workload.

    Only the cell order depends on the seed, so every cell must produce
    the same digest; a difference means state leaked between cells.
    """
    def digests(raw):
        out = {}
        for op in _section(raw, "main", "sim")["ops"]:
            out.setdefault(op["id"], op.get("digest"))
        return out
    a, b = digests(raw_a), digests(raw_b)
    diffs = []
    for cell in sorted(set(a) | set(b)):
        if cell not in a or cell not in b:
            diffs.append((cell, ["missing"]))
        elif a[cell] is None or b[cell] is None:
            diffs.append((cell, ["error"]))
        else:
            fields = diff_digest(a[cell], b[cell])
            if fields:
                diffs.append((cell, fields))
    return diffs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def serve_passes(section):
    """Per pass of a serve section: (seconds, ok, latencies in us)."""
    out, i = [], 0
    lat = section["latency_us"]
    for p in section["passes"]:
        out.append((p["seconds"], p["ok"], lat[i:i + p["requests"]]))
        i += p["requests"]
    return out


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus readable lines.

    Other tenants of a shared host only ever slow a measurement down,
    and their load shifts within seconds. So each timing is the fastest
    observation: a sim cell's fastest pass, a serve pass's best figures.
    The per-pass range is printed beside it.
    """
    main = _section(raw, "main")
    metrics = {"setup_s": _metric(statistics.median(main["setup_s"]), "s")}
    lines = ["setup_s        %.6f s   median of %d set-ups"
             % (metrics["setup_s"]["value"], len(main["setup_s"]))]
    n_pass = len(main["passes"])
    if main["kind"] == "sim":
        best, steps = {}, {}
        for op in main["ops"]:
            best[op["id"]] = min(op["ms"], best.get(op["id"], op["ms"]))
            if "digest" in op:
                steps[op["id"]] = op["digest"]["warp_steps"]
        b = list(best.values())
        work = sum(steps.values()) / (sum(b) / 1e3)
        p50 = statistics.median(b)
        label, tail_ms, n, beyond = tail(b)
        rates = [p["warp_steps"] / p["seconds"] for p in main["passes"]]
        lines += [
            "work_per_s     %.1f warp steps/s   (warp_steps_per_s)"
            % work,
            "op_p50_ms      %.4f ms   host time per cell, n=%d cells"
            "   (cell_p50_ms)" % (p50, n),
            "op_tail_ms     %.4f ms   %s, n=%d cells, %d beyond"
            "   (cell_%s_ms)" % (tail_ms, label, n, beyond, label),
            "               each cell's fastest of %d passes; per-pass "
            "warp steps/s ranged %.0f..%.0f" % (n_pass, min(rates),
                                                 max(rates)),
        ]
    else:
        passes = serve_passes(main)
        if not main["latency_us"]:
            raise ValueError("serve_mix sent no requests")
        qps = [ok / sec for sec, ok, _ in passes]
        p50s = [statistics.median(lat) / 1e3 for _, _, lat in passes]
        tails = [tail(lat) for _, _, lat in passes]
        work, p50 = max(qps), min(p50s)
        label, tail_us, n, beyond = min(tails, key=lambda t: t[1])
        tail_ms = tail_us / 1e3
        lines += [
            "work_per_s     %.1f ok replies/s   (qps)" % work,
            "op_p50_ms      %.4f ms   place() latency, n=%d per pass"
            "   (p50_us %.1f)" % (p50, len(passes[0][2]), p50 * 1e3),
            "op_tail_ms     %.4f ms   %s, n=%d, %d beyond   (%s_us %.1f)"
            % (tail_ms, label, n, beyond, label, tail_us),
            "               fastest of %d passes; per-pass qps ranged "
            "%.0f..%.0f" % (n_pass, min(qps), max(qps)),
        ]
    metrics["work_per_s"] = _metric(work, "1/s")
    metrics["op_p50_ms"] = _metric(p50, "ms")
    metrics["op_tail_ms"] = _metric(tail_ms, "ms")
    rss = main["peak_rss_kb"] / 1024.0
    metrics["peak_rss_mb"] = _metric(rss, "MiB")
    lines.append("peak_rss_mb    %.1f MiB   after set-up and the first pass"
                 % rss)
    return metrics, lines


# --- traced run ------------------------------------------------------------

def parse_spans(text):
    """Span log lines -> list of (section, stream, id, parent, name, op,
    start_ns, end_ns)."""
    spans = []
    for line in text.splitlines():
        if not line:
            continue
        sec, stream, sid, parent, name, op, start, end = line.split("\t")
        spans.append((sec, int(stream), int(sid), int(parent), name,
                      int(op), int(start), int(end)))
    return spans


def self_times(spans):
    """Per (section, name): list of self times in seconds. A span's self
    time is its duration minus the time its children cover."""
    child = {}
    for sec, stream, _, parent, _, _, start, end in spans:
        if parent >= 0:
            key = (sec, stream, parent)
            child[key] = child.get(key, 0) + (end - start)
    out = {}
    for sec, stream, sid, _, name, _, start, end in spans:
        self_ns = (end - start) - child.get((sec, stream, sid), 0)
        out.setdefault((sec, name), []).append(self_ns / 1e9)
    return out


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, plus readable lines.

    Each layer is read from the run's own operations when the workload
    reaches it, and from the fixed probe otherwise (the lines say which).
    """
    selfs = self_times(spans)
    main = _section(raw, "main")
    sim = main if main["kind"] == "sim" else _section(raw, "probe", "sim")
    pdes = sim if sim.get("pdes") else _section(raw, "probe", "sim")
    serve = (main if main["kind"] == "serve"
             else _section(raw, "probe", "serve"))
    metrics = {}
    lines = []

    def put(name, value, unit, note=""):
        metrics[name] = _metric(value, unit)
        lines.append("%-32s %.6g %s%s" % (name, value, unit, note))

    def src(sec):
        return "" if sec["role"] == "main" else "   [probe]"

    passes = len(sim["passes"])
    c = sim["traced"]["counters"]

    def layer_s(name):
        return sum(selfs.get((sim["role"], name), [])) / passes

    for span, metric in (("workloads.make", "workloads.make_s"),
                         ("runtime.prepare", "runtime.prepare_s"),
                         ("sched.assign", "sched.assign_s"),
                         ("sim.construct", "sim.construct_s"),
                         ("sim.destroy", "sim.destroy_s"),
                         ("sim.run_kernel", "sim.run_kernel_s"),
                         ("cell", "harness.cell_self_s")):
        put(metric, layer_s(span), "s", "   self time per pass" + src(sim))
    sectors = c["sim.sector_accesses"] / passes
    put("sim.ns_per_sector", layer_s("sim.run_kernel") * 1e9 / sectors,
        "ns", "   base sim.sector_accesses" + src(sim))
    for k in ("sim.warp_steps", "sim.sector_accesses", "sim.cycles"):
        put(k, c[k] / passes, "count", "   per pass" + src(sim))

    def ratio(name, num, den, base):
        put(name, num / den if den else 0.0, "ratio",
            "   base " + base + src(sim))
        put(base, den / passes, "count", "   per pass" + src(sim))

    ratio("mem.l1_hit_rate", c["mem.l1_hits"], c["mem.l1_accesses"],
          "mem.l1_accesses")
    ratio("mem.l2_hit_rate", c["mem.l2_hits"], c["mem.l2_accesses"],
          "mem.l2_accesses")
    ratio("mem.remote_frac", c["mem.fetch_remote"],
          c["mem.fetch_local"] + c["mem.fetch_remote"], "mem.fetches")
    for k in ("mem.uvm_faults", "mem.mshr_merges"):
        put(k, c[k] / passes, "count", "   per pass" + src(sim))
    for k in ("net.inter_node_bytes", "net.inter_gpu_bytes"):
        put(k, c[k] / passes, "B", "   per pass" + src(sim))

    pc = pdes["traced"]["counters"]
    pp = len(pdes["passes"])
    put("engine.pdes.windows", pc["engine.pdes.windows"] / pp, "count",
        "   per pass" + src(pdes))
    put("engine.pdes.deferred_ops", pc["engine.pdes.deferred_ops"] / pp,
        "count", "   per pass" + src(pdes))
    put("engine.pdes.barrier_wait_s",
        pc["engine.pdes.barrier_wait_ns"] / 1e9 / pp, "s",
        "   summed over shards, per pass" + src(pdes))

    def us(name):
        return [v * 1e6 for v in selfs.get((serve["role"], name), [])]

    hit, miss = us("serve.place.hit"), us("serve.place.miss")
    put("serve.hit_us_p50", percentile(hit, 50), "us",
        "   n=%d%s" % (len(hit), src(serve)))
    put("serve.miss_us_p50", percentile(miss, 50), "us",
        "   n=%d%s" % (len(miss), src(serve)))
    put("serve.miss_us_p99", percentile(miss, 99), "us",
        "   n=%d%s" % (len(miss), src(serve)))
    for span, metric in (("serve.classify", "serve.classify_us_p50"),
                         ("serve.journal_append",
                          "serve.journal_append_us_p50"),
                         ("serve.wire", "serve.wire_us_p50")):
        v = us(span)
        put(metric, percentile(v, 50), "us", "   n=%d%s" % (len(v),
                                                           src(serve)))
    replay = selfs.get((serve["role"], "serve.replay"), [])
    put("serve.replay_s", statistics.median(replay), "s",
        "   median of %d%s" % (len(replay), src(serve)))
    put("serve.hit_rate", serve["hits"] / max(1, serve["requests"]),
        "ratio", "   base serve.requests=%d%s" % (serve["requests"],
                                                 src(serve)))
    put("serve.requests", serve["requests"], "count", src(serve))

    t = sim["traced"]
    untraced = t["warp_steps"] / t["untraced_s"]
    traced = t["warp_steps"] / t["traced_s"]
    put("trace.overhead_ratio", traced / untraced, "ratio",
        "   traced over untraced warp steps/s" + src(sim))
    put("trace.untraced_warp_steps_per_s", untraced, "1/s", src(sim))
    put("trace.traced_warp_steps_per_s", traced, "1/s", src(sim))
    put("trace.spans", len(spans), "count")
    return metrics, lines


def evaluate(raw, golden, spans=None):
    """The result object the benchmark prints, plus readable lines."""
    attempted, failed, problems = count_ops(raw, golden)
    if raw["trace"]:
        metrics, lines = per_layer(raw, spans or [])
    else:
        metrics, lines = end_to_end(raw)
    lines.append("operations     attempted %d, failed %d"
                 % (attempted, failed))
    lines += ["FAIL " + p for p in problems[:20]]
    if len(problems) > 20:
        lines.append("FAIL ... %d more" % (len(problems) - 20))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines
