"""Run one workload: set up, measure a closed loop of passes, check answers.

A pass sends each request of the workload once, the next only after the
previous one returned (one client, one process).  An untraced run repeats
passes for the requested number of seconds and reports the end-to-end
metrics.  A traced run makes one untraced pass, one pass with the tracer's
wrappers in place and, on matrix-mono, the striping probe, and reports the
per-layer metrics.
"""

import json
import os
import platform
import resource
import statistics
import time

import tracing
import workloads

SETUP_REPEATS = 15


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quantile(values, q):
    """Linearly interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Outcome:
    """One answered (or failed) request of a pass."""

    def __init__(self, request, raw, error, seconds, budget_stop=False):
        self.request = request
        self.raw = raw
        self.report = None
        self.error = error
        self.seconds = seconds
        self.budget_stop = budget_stop

    @property
    def nodes(self):
        return self.report.get("nodes") if self.report else None


def attempt(request, call, m):
    """Time call(); a raised exception makes a failed outcome, not a crash."""
    start = time.perf_counter()
    try:
        raw = call()
    except Exception as e:  # a failed request is counted, not fatal
        seconds = time.perf_counter() - start
        budget = isinstance(e, m.search.BudgetExceeded) or getattr(e, "code", None) == 3
        return Outcome(request, None, "%s: %s" % (type(e).__name__, e), seconds, budget)
    return Outcome(request, raw, None, time.perf_counter() - start)


def run_pass(w, m, tracer=None):
    if tracer is None:
        return [attempt(r, r.call, m) for r in w.requests]
    return [attempt(r, lambda r=r: tracer.run_request(r.id, r.call), m)
            for r in w.requests]


def parse(w, o):
    """Set o.report to the request's report as plain JSON values."""
    raw = o.raw
    if isinstance(raw, str):
        if w.tmpdir:
            raw = raw.replace(w.tmpdir, "$DIR")
        o.report = json.loads(raw)
    else:
        o.report = json.loads(json.dumps(raw))
    return o.report


def answer(report):
    """The part of a report that is pinned: all but `nodes` and `timing`."""
    return {k: v for k, v in report.items() if k not in ("nodes", "timing")}


def check(w, outcomes, expected, seed):
    """Parse each report and set outcome.error when the answer is wrong.

    The answer is the report without `nodes` and `timing`; it must match the
    pinned one where the request has a pin for this seed, every search must
    end definitively, and every reported witness must pass the request's
    independent check.
    """
    pins = expected.get(w.name, {})
    for o in outcomes:
        if o.error:
            continue
        rep = parse(w, o)
        if rep.get("outcome") == "budget" or rep.get("exhausted") is False:
            o.budget_stop = True
            o.error = "stopped on its node budget"
            continue
        if o.request.pinned_on(seed):
            want = pins.get(o.request.id)
            if want is None:
                o.error = "no pinned answer"
                continue
            if answer(rep) != want:
                o.error = "answer differs from the pinned one"
                continue
        if o.request.verify:
            o.error = o.request.verify(rep)


def set_up(name, seed, size, scratch):
    """Import ripr and build the workload SETUP_REPEATS times; returns the
    last (modules, workload) and the median set-up time."""
    times = []
    w = None
    for _ in range(SETUP_REPEATS):
        if w is not None:
            w.close()
        start = time.perf_counter()
        m = workloads.load_ripr()
        w = workloads.setup(name, seed, size, m, scratch)
        times.append(time.perf_counter() - start)
    return m, w, statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace, out_dir, size="full", expected=None):
    """Returns (result, info): result is the benchmark's JSON result line."""
    if expected is None:
        with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fh:
            expected = json.load(fh)[size]
    m, w, setup_s = set_up(name, seed, size, out_dir)
    try:
        if trace:
            return _traced(name, seed, m, w, expected, out_dir)
        return _untraced(name, seed, m, w, expected, seconds, setup_s)
    finally:
        w.close()


def _errors(outcomes):
    return ["%s: %s" % (o.request.id, o.error) for o in outcomes if o.error]


def _untraced(name, seed, m, w, expected, seconds, setup_s):
    walls, errors = [], []
    latencies = {r.id: [] for r in w.requests}
    attempted = 0
    start = time.perf_counter()
    while True:
        outcomes = run_pass(w, m)
        check(w, outcomes, expected, seed)
        attempted += len(outcomes)
        errors += _errors(outcomes)
        walls.append(sum(o.seconds for o in outcomes))
        for o in outcomes:
            latencies[o.request.id].append(o.seconds)
        # Start another pass only if it should end inside the window.
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    # The requests are deterministic, so a request's latency varies between
    # passes only with the machine; its median over the passes is its
    # latency, and the percentiles run over the workload's requests.
    per_request = [statistics.median(v) for v in latencies.values()]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "request_p50_ms": _metric(1000 * quantile(per_request, 0.5), "ms"),
        "request_p90_ms": _metric(1000 * quantile(per_request, 0.9), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mib": _metric(peak_kib / 1024, "MiB"),
    }
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    info = {"machine": machine(), "workload": name, "seed": seed, "trace": 0,
            "passes": len(walls), "requests": len(per_request),
            "nodes_per_pass": sum(o.nodes or 0 for o in outcomes), "errors": errors[:10]}
    return result, info


def _traced(name, seed, m, w, expected, out_dir):
    plain = run_pass(w, m)
    check(w, plain, expected, seed)
    tracer = tracing.Tracer(vars(m))
    tracer.patch()
    try:
        traced = run_pass(w, m, tracer)
    finally:
        tracer.unpatch()
    check(w, traced, expected, seed)
    outcomes = plain + traced
    speedup = node_ratio = 0.0  # 0 marks a workload without the probe
    if w.probe is not None:
        probe, speedup, node_ratio = _striping_probe(w, m)
        check(w, probe, expected, seed)
        if not probe[0].error and not probe[1].error \
                and probe[0].report["witness"] != probe[1].report["witness"]:
            probe[1].error = "workers=2 answer differs from workers=1"
        outcomes += probe
    errors = _errors(outcomes)

    searched = [o for o in plain if o.nodes is not None]
    nodes = sum(o.nodes for o in searched)
    search_s = sum(o.seconds for o in searched)
    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced)
    colour_calls = tracer.calls("colourings.Colouring.colour")
    colour_evals = tracer.colour_evals()
    gap_evals = tracer.gap_evals()
    negabase_calls = tracer.calls("digits.negabase_digits")
    cli_requests = tracer.layer_calls.get("cli", 0)
    cli_self = tracer.self_s("cli.") - tracer.total_s("cli.canonical")
    t = tracer
    values = [
        ("search.nodes", nodes, "count"),
        ("search.nodes_per_s", nodes / search_s if search_s else 0.0, "1/s"),
        ("search.self_s", t.self_s("search."), "s"),
        ("search.nodes_per_answer", nodes / len(searched) if searched else 0.0, "count"),
        ("search.budget_stops", sum(o.budget_stop for o in plain), "count"),
        ("search.workers2_speedup", speedup, "ratio"),
        ("search.workers2_node_ratio", node_ratio, "ratio"),
        ("colourings.colour_calls", colour_calls, "count"),
        ("colourings.colour_evals", colour_evals, "count"),
        ("colourings.memo_hit_ratio",
         (colour_calls - colour_evals) / colour_calls if colour_calls else 0.0, "ratio"),
        ("colourings.colour_self_s", t.self_s("colourings.Colouring.colour"), "s"),
        ("colourings.distinct_values", t.distinct_colours(), "count"),
        ("colourings.build_s", sum(s[1] for n, s in t.stats.items()
                                   if n.startswith("colourings.") and n.endswith("_colouring")),
         "s"),
        ("digits.negabase_calls", negabase_calls, "count"),
        ("digits.negabase_s", t.total_s("digits.negabase_digits"), "s"),
        ("digits.expansions_per_eval", negabase_calls / gap_evals if gap_evals else 0.0,
         "ratio"),
        ("digits.gap_counts_s", t.total_s("digits.gap_counts"), "s"),
        ("digits.top_digits_s", t.total_s("digits.top_digits"), "s"),
        ("ratcore.dot_calls", t.calls("ratcore.SparseRow.dot"), "count"),
        ("ratcore.dot_s", t.total_s("ratcore.SparseRow.dot"), "s"),
        ("ratcore.apply_calls", t.calls("ratcore.apply"), "count"),
        ("seqs.block_tuples_built", t.items.get("seqs.block_tuples", 0), "count"),
        ("seqs.block_tuples_s", t.total_s("seqs.block_tuples"), "s"),
        ("matgen.build_s", t.layer_s.get("matgen", 0.0), "s"),
        ("matgen.rows_built", t.rows_built, "count"),
        ("cli.self_ms", 1000 * cli_self / cli_requests if cli_requests else 0.0, "ms"),
        ("cli.canonical_ms",
         1000 * t.total_s("cli.canonical") / cli_requests if cli_requests else 0.0, "ms"),
        ("trace.overhead_ratio", traced_wall / plain_wall, "ratio"),
        ("error_rate", len(errors) / len(outcomes), "ratio"),
    ]
    metrics = {n: _metric(v, u) for n, v, u in values}
    result = {"correct": not errors, "attempted": len(outcomes), "failed": len(errors),
              "metrics": metrics}
    info = {"machine": machine(), "workload": name, "seed": seed, "trace": 1,
            "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "errors": errors[:10]}
    path = os.path.join(out_dir, "trace-%s-seed%d.json" % (name, seed))
    tracer.write(path, dict(info, metrics=metrics))
    info["trace_file"] = path
    return result, info


def _striping_probe(w, m):
    """The probe request at workers=1, then workers=2, both untraced."""
    request, call = w.probe
    one, two = [attempt(request, lambda k=k: call(k), m) for k in (1, 2)]
    node_ratio = 0.0
    if one.raw and two.raw:
        node_ratio = two.raw["nodes"] / one.raw["nodes"]
    return [one, two], one.seconds / two.seconds, node_ratio
