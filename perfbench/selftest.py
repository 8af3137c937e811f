"""Self-test of the benchmark at tiny sizes, and the tool that pins answers.

The self-test runs every workload at its tiny size, untraced and traced, and
checks that the answer checks fire: a tampered pinned answer must raise
error_rate above 0, and a tampered witness must fail its independent check.
It also checks that each run reports exactly the metrics BENCHMARK.json
names.
"""

import copy
import json
import os

import bench
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def pin(out_dir, path):
    """Write the answers of the current code, at the default seed, as pins."""
    pins = {}
    for size in workloads.SIZES:
        pins[size] = {}
        for name in workloads.WORKLOADS:
            m = workloads.load_ripr()
            w = workloads.setup(name, workloads.DEFAULT_SEED, size, m, out_dir)
            try:
                outcomes = bench.run_pass(w, m)
                pins[size][name] = {}
                for o in outcomes:
                    if o.error:
                        raise SystemExit("cannot pin %s/%s: %s" % (name, o.request.id, o.error))
                    pins[size][name][o.request.id] = bench.answer(bench.parse(w, o))
            finally:
                w.close()
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(out_dir):
    out_dir = os.path.join(out_dir, "selftest")  # keep full-size traces apart
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)["tiny"]
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json names exactly the workloads the benchmark runs")
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        result, info = bench.run_workload(name, seed, 0, 0, out_dir, "tiny", expected)
        expect(result["correct"] and not result["failed"],
               "%s: untraced answers match their pins %s" % (name, info["errors"]))
        expect(set(result["metrics"]) == end_to_end,
               "%s: untraced run reports exactly the end-to-end metrics" % name)
        result, info = bench.run_workload(name, seed, 0, 1, out_dir, "tiny", expected)
        expect(result["correct"] and not result["failed"],
               "%s: traced answers match their pins %s" % (name, info["errors"]))
        expect(set(result["metrics"]) == per_layer,
               "%s: traced run reports exactly the per-layer metrics" % name)
        wrong = copy.deepcopy(expected)
        rid = sorted(wrong[name])[0]
        wrong[name][rid]["outcome"] = "tampered"
        result, _ = bench.run_workload(name, seed, 0, 1, out_dir, "tiny", wrong)
        expect(result["metrics"]["error_rate"]["value"] > 0 and not result["correct"],
               "%s: a wrong pinned answer for %r raises error_rate" % (name, rid))

    # Seeded requests have no pin off the default seed; their witnesses are
    # checked independently instead.
    other = seed + 7
    m = workloads.load_ripr()
    w = workloads.setup("matrix-mono", other, "tiny", m, out_dir)
    outcomes = bench.run_pass(w, m)
    bench.check(w, outcomes, expected, other)
    witnesses = [o for o in outcomes if o.report and o.report["witness"]]
    expect(witnesses and not any(o.error for o in outcomes),
           "matrix-mono seed %d: %d witnesses pass their independent checks"
           % (other, len(witnesses)))
    for o in witnesses:
        bad = copy.deepcopy(o.report)
        bad["witness"]["colour"] = "tampered"
        expect(o.request.verify(bad) is not None,
               "matrix-mono seed %d: a tampered witness of %s is caught" % (other, o.request.id))

    print("self-test %s" % ("failed: %d checks" % len(failures) if failures else "passed"))
    return 1 if failures else 0
