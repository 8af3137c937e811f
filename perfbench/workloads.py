"""The benchmark's four workloads: their inputs, requests and answer checks.

Every request goes through ripr's public API: `cli.main(argv)` or
`cli.run(spec)`, or `search.*` where the CLI cannot express the input (table
colourings, matrices built in memory).  A request builds its own matrices
and colourings, as a fresh CLI call would, so no pass of the closed loop
reuses a memo or plan left by an earlier pass.  Every search request passes
an explicit node budget, so RIPR_BUDGET in the environment cannot change a
run.

Only the random colour tables of `matrix-mono` and the request order of
`force-sweep` and `cli-corpus` depend on the seed; every other input is fixed
because its answer is pinned.
"""

import contextlib
import importlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import types
from itertools import product

DEFAULT_SEED = 0
BUDGET = 10**7
MODULES = ("ratcore", "seqs", "digits", "matgen", "colourings", "search", "cli")
WORKLOADS = ("mt-separate", "matrix-mono", "force-sweep", "cli-corpus")

# The "tiny" sizes feed the self-test; "full" is what the benchmark measures.
SIZES = {
    "full": {
        "separate": [("separate", "notrapid:7:1,2", 2, 30000)],
        "mono": {"tables": 3, "colours": 8, "span": 1200, "bound": 300},
        "dominate": {"width": 7, "ybound": 5461},
        "translate": {"prefix": 3, "bbound": 20, "xbound": 60},
        "force": [("schur-3c-13", "schur", 3, 13), ("ap4-2c-20", "ap:4", 2, 20),
                  ("ap3-3c-12", "ap:3", 3, 12), ("schur-2c-8", "schur", 2, 8),
                  ("ap3-2c-12", "ap:3", 2, 12)],
        "corpus": 20,
    },
    "tiny": {
        "separate": [("separate", "notrapid:7:1,2", 2, 2000),
                     ("separate-mod3", "mod:3", 2, 30)],
        "mono": {"tables": 3, "colours": 2, "span": 160, "bound": 40},
        "dominate": {"width": 5, "ybound": 341},
        "translate": {"prefix": 2, "bbound": 8, "xbound": 10},
        "force": [("schur-2c-8", "schur", 2, 8), ("ap3-2c-12", "ap:3", 2, 12)],
        "corpus": 3,
    },
}

# The 20-case search corpus of acceptance criterion 12:
# (family, colouring, bound, distinct entries and image).
SEARCH_CORPUS = [
    ("schur", "mod:2", 10, False), ("schur", "mod:2", 10, True),
    ("schur", "mod:3", 12, False), ("schur", "primeexp:2:3", 20, False),
    ("schur", "alpha:2", 16, False), ("f:3", "mod:2", 10, False),
    ("f:3", "mod:3", 12, False), ("f:3", "digitprofile:5", 12, False),
    ("ap:3", "mod:2", 12, False), ("ap:3", "mod:3", 12, False),
    ("ap:3", "alpha:3/2", 12, False), ("ap:4", "mod:2", 20, False),
    ("mpc:2,2,1", "mod:2", 10, False), ("deuber:2,2,1", "mod:2", 12, False),
    ("deuber:2,2,1", "mod:3", 12, False), ("band:1,2,1:2", "mod:2", 8, False),
    ("grouped:3", "mod:2", 10, False), ("doublingsys:1", "mod:2", 8, False),
    ("fprime:4", "mod:2", 8, False), ("mt:2,1:3", "mod:2", 12, False),
]

PROBE_ROWS = [[1, 0], [0, 1], [1, 1], [1, 2]]


class RequestFailed(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class Request:
    """One closed-loop request.

    call() returns a report (a dict, or canonical JSON text from the CLI).
    pinned_on(seed) says whether the answer is compared with the pinned one;
    verify(report) checks a reported witness independently and returns an
    error message or None.
    """

    def __init__(self, rid, call, seeded=False, verify=None):
        self.id = rid
        self.call = call
        self.seeded = seeded
        self.verify = verify

    def pinned_on(self, seed):
        return not self.seeded or seed == DEFAULT_SEED


class Workload:
    def __init__(self, name, requests, probe=None, tmpdir=None):
        self.name = name
        self.requests = requests
        # (request, call(workers)) for the striping probe, or None
        self.probe = probe
        self.tmpdir = tmpdir

    def close(self):
        if self.tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


def load_ripr():
    """Import ripr afresh, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "ripr" or n.startswith("ripr.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{n: importlib.import_module("ripr." + n) for n in MODULES})


def setup(name, seed, size, m, scratch):
    """Build the inputs of workload `name`; m holds the ripr modules and
    scratch is a directory inside the checkout for files the requests read."""
    params = SIZES[size]
    if name == "mt-separate":
        return Workload(name, _separate_requests(m, params))
    if name == "matrix-mono":
        return _matrix_mono(m, params, seed)
    if name == "force-sweep":
        reqs = _force_requests(m, params)
        random.Random(seed).shuffle(reqs)
        return Workload(name, reqs)
    if name == "cli-corpus":
        tmpdir = tempfile.mkdtemp(prefix="cli-", dir=scratch)
        reqs = _cli_requests(m, params, tmpdir)
        random.Random(seed).shuffle(reqs)
        return Workload(name, reqs, tmpdir=tmpdir)
    raise ValueError("unknown workload %r" % name)


# -- mt-separate and force-sweep: cli.run on pinned specs -------------------

def _run_spec(m, command, params):
    return lambda: m.cli.run(m.cli.ExperimentSpec(command, dict(params)))


def _separate_requests(m, params):
    return [
        Request(rid, _run_spec(m, "separate", {
            "a": [1], "b": [2, 1], "colouring": colouring, "prefix": prefix,
            "bound": bound, "budget": BUDGET}))
        for rid, colouring, prefix, bound in params["separate"]
    ]


def _force_requests(m, params):
    return [
        Request(rid, _run_spec(m, "force", {
            "family": family, "colours": colours, "nmax": nmax, "budget": BUDGET}))
        for rid, family, colours, nmax in params["force"]
    ]


# -- matrix-mono: search.* under seeded colour tables -----------------------

def _matrix_mono(m, params, seed):
    mono, dom, tr = params["mono"], params["dominate"], params["translate"]
    rng = random.Random(seed)
    tables = [
        {v: rng.randrange(mono["colours"]) for v in range(1, mono["span"] + 1)}
        for _ in range(mono["tables"])
    ]
    bound = mono["bound"]

    def mono_call(table, workers=1):
        def call():
            A = m.matgen.finite_sums_matrix(4)
            col = m.colourings.table_colouring(table)
            # Distinct entries rule out the diagonal witnesses (a, a, a, a),
            # which half of all random 8-colourings have; without them the
            # search runs to exhaustion on nearly every seed, so the seed
            # barely changes the size of a run.
            cfg = m.search.SearchConfig(bound, distinct_entries=True, node_budget=BUDGET)
            res = m.search.find_monochromatic(A, col, cfg, workers)
            return _search_report(res, _assignment_witness(res.witness))
        return call

    reqs = [
        Request("mono-%d" % i, mono_call(t), seeded=True,
                verify=_verify_mono(m, t, bound))
        for i, t in enumerate(tables)
    ]
    probe = (reqs[0], lambda workers: mono_call(tables[0], workers)())

    x = [4**i for i in range(dom["width"])]

    def dominate():
        A = m.matgen.finite_sums_matrix(dom["width"])
        B = m.ratcore.FiniteMatrix.from_dense(PROBE_ROWS)
        res = m.search.find_dominated_assignment(A, B, x, dom["ybound"], BUDGET)
        return _search_report(res, _assignment_witness(res.witness))

    reqs.append(Request("dominate", dominate,
                        verify=_verify_dominate(m, dom["width"], x, dom["ybound"])))

    def translate():
        col = m.colourings.table_colouring(tables[0])
        res = m.search.translate_witness(
            col, (2, 1), tr["prefix"], tr["bbound"], tr["xbound"], BUDGET)
        w = res.witness
        return _search_report(res, w and {"b": w[0], "x": list(w[1]), "colour": w[2]})

    reqs.append(Request("translate", translate, seeded=True,
                        verify=_verify_translate(tables[0], tr)))
    return Workload("matrix-mono", reqs, probe=probe)


def _search_report(res, witness):
    """Report of a search result, given its witness as JSON values or None."""
    outcome = "none-within-bounds" if res.exhausted else "budget"
    return {"nodes": res.nodes, "exhausted": res.exhausted, "witness": witness,
            "outcome": "witness" if witness is not None else outcome}


def _assignment_witness(w):
    if w is None:
        return None
    return {"assignment": list(w.assignment), "image": w.image.sorted_values(),
            "colour": w.colour}


def _verify_mono(m, table, bound):
    def verify(rep):
        w = rep["witness"]
        if w is None:
            return None
        x = w["assignment"]
        if len(x) != 4 or len(set(x)) != 4 or not all(1 <= v <= bound for v in x):
            return "assignment %r is out of bounds or repeats an entry" % (x,)
        vals = m.ratcore.image(m.matgen.finite_sums_matrix(4), x).sorted_values()
        if vals != w["image"]:
            return "reported image differs from the recomputed one"
        if any(table.get(v) != w["colour"] for v in vals):
            return "image is not monochromatic in the reported colour"
        return None
    return verify


def _verify_dominate(m, width, x, ybound):
    def verify(rep):
        w = rep["witness"]
        if w is None:
            return None
        y = w["assignment"]
        if not all(1 <= v <= ybound for v in y):
            return "assignment %r is out of bounds" % (y,)
        target = m.ratcore.image(m.matgen.finite_sums_matrix(width), x).values
        B = m.ratcore.FiniteMatrix.from_dense(PROBE_ROWS)
        if not m.ratcore.image(B, y).values <= target:
            return "probe image is not inside the target image"
        return None
    return verify


def block_values(a, x):
    """Values sum a_i * (sum of x over block F_i) over all blocks
    F_0 < ... < F_k of indices into x, computed by brute force over labels."""
    out = set()
    for labels in product(range(-1, len(a)), repeat=len(x)):
        used = [lab for lab in labels if lab >= 0]
        if used == sorted(used) and set(used) == set(range(len(a))):
            out.add(sum(a[lab] * v for lab, v in zip(labels, x) if lab >= 0))
    return out


def _verify_translate(table, tr):
    def verify(rep):
        w = rep["witness"]
        if w is None:
            return None
        b, x = w["b"], w["x"]
        if not 1 <= b <= tr["bbound"] or len(x) != tr["prefix"] or len(set(x)) != len(x) \
                or not all(1 <= v <= tr["xbound"] for v in x):
            return "witness b=%r, x=%r is out of bounds" % (b, x)
        vals = block_values((1,), x) | {b + v for v in block_values((2, 1), x)}
        if any(table.get(v) != w["colour"] for v in vals):
            return "translated system is not monochromatic in the reported colour"
        return None
    return verify


# -- cli-corpus: cli.main(argv) with stdout captured -------------------------

def _cli_call(m, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main(argv)
        if code != 0:
            raise RequestFailed("exit %d: %s" % (code, err.getvalue().strip()), code)
        return out.getvalue()
    return call


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli_requests(m, params, tmpdir):
    def f(name, obj):
        return _write_json(os.path.join(tmpdir, name), obj)

    # One file per matrix format that load_matrix reads.
    a = f("a.json", [[1, 0], [0, 1], [1, 1]])
    b = f("b.json", {"dense": [[1, 0], [0, 2], [1, 2]], "width": 2})
    c = f("c.json", {"width": 2, "rows": [[[0, 1, 1]], [[1, 2, 1]]]})
    probe = f("probe.json", PROBE_ROWS)
    report = {"schemaVersion": 1, "command": "search", "outcome": "witness",
              "witness": {"assignment": [1, 2], "colour": 1}}
    left = f("left.json", report)
    right = f("right.json", dict(report, witness={"assignment": [1, 3], "colour": 1}))
    budget = ["--budget", str(BUDGET)]
    argvs = {
        "gen": ["gen", "mt", "--coeffs", "2,1", "--width", "4"],
        "image": ["image", "--matrix-file", a, "--x", "1,2/3"],
        "digits": ["digits", "--base", "-7", "--gap", "1,1,0,0,0", "282477650"],
        "colour": ["colour", "--kind", "notrapid", "--p", "7", "--coeffs", "1,2",
                   "7", "2500", "282477650"],
        "force": ["force", "--family", "schur", "--colours", "2", "--nmax", "8"] + budget,
        "separate": ["separate", "--a", "1", "--b", "2,1", "--colouring",
                     "notrapid:7:1,2", "--prefix", "3", "--bound", "200"] + budget,
        "dominate": ["dominate", "--a-family", "f:4", "--b-file", probe,
                     "--x", "1,4,16,64", "--ybound", "85"] + budget,
        "certify": ["certify", "--a-file", a, "--b-file", b, "--c-file", c],
        "rapid": ["rapid", "--p", "2", "--make", "--seeds", "3,5"],
        "translate-search": ["translate-search", "--a", "2,1", "--colouring", "mod:2",
                             "--prefix", "2", "--bbound", "8", "--xbound", "10"] + budget,
        "diff": ["diff", left, right],
    }
    for family, colouring, bound, strict in SEARCH_CORPUS[:params["corpus"]]:
        rid = "search %s %s %d%s" % (family, colouring, bound, " strict" if strict else "")
        argvs[rid] = ["search", "--family", family, "--colouring", colouring,
                      "--bound", str(bound)] + budget
        if strict:
            argvs[rid] += ["--distinct-entries", "--distinct-image"]
    return [Request(rid, _cli_call(m, argv)) for rid, argv in argvs.items()]
