"""Golden replay: stored canonical CLI reports must replay byte for byte.

Each case is an argv whose report, `nodes` included, lives in
tests/golden/<name>.json.  The corpus is the criterion-12 search corpus plus
separate, dominate, translate-search and force requests that find a witness
(or a bound), find none, or stop on their node budget, and searches on a
matrix file under tests/matrices.  force cannot report
a budget stop in its body: it exits 3, and its golden records the exit code
and the stderr line instead of a report.  After a deliberate change to a report,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which reports moved and why.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from ripr.cli import canonical, main
from test_acceptance import _CORPUS

GOLDEN = pathlib.Path(__file__).with_name("golden")
ROOT = GOLDEN.parent.parent  # matrix files are named from the root of the checkout


def _search_argv(fam, colslug, bound, strict):
    argv = ["search", "--family", fam, "--colouring", colslug, "--bound", str(bound)]
    return argv + (["--distinct-entries", "--distinct-image"] if strict else [])


CASES = {"search-%02d" % i: _search_argv(*case) for i, case in enumerate(_CORPUS, 1)}
CASES.update({
    "search-budget": ["search", "--family", "f:3", "--colouring", "alpha:2",
                      "--bound", "50", "--budget", "10"],
    "separate-witness": ["separate", "--a", "1", "--b", "3,1", "--colouring", "mod:4",
                         "--prefix", "3", "--bound", "20"],
    "separate-none": ["separate", "--a", "1", "--b", "2,1", "--colouring",
                      "notrapid:7:1,2", "--prefix", "2", "--bound", "3000"],
    "separate-budget": ["separate", "--a", "1", "--b", "2,1", "--colouring",
                        "notrapid:7:1,2", "--prefix", "2", "--bound", "3000",
                        "--budget", "2000"],
    # separate-none's walk, which ends at 9,000 nodes: a budget equal to the
    # count answers in full
    "separate-budget-unreached": ["separate", "--a", "1", "--b", "2,1", "--colouring",
                                  "notrapid:7:1,2", "--prefix", "2", "--bound", "3000",
                                  "--budget", "9000"],
    # stops past the 2,401 reserved values at depth 0, inside the node of x_0 = 2402,
    # whose colour is known, in the step that colours 1..2403 ahead of its walk
    "separate-budget-deep": ["separate", "--a", "1", "--b", "2,1", "--colouring",
                             "notrapid:7:1,2", "--prefix", "2", "--bound", "3000",
                             "--budget", "3500"],
    "dominate-witness": ["dominate", "--a-family", "f:4", "--b-family", "fprime:3",
                         "--x", "1,4,16,64", "--ybound", "85"],
    "dominate-none": ["dominate", "--a-family", "f:4", "--b-family", "ap:3",
                      "--x", "1,4,16,64", "--ybound", "85"],
    "dominate-budget": ["dominate", "--a-family", "f:4", "--b-family", "ap:3",
                        "--x", "1,4,16,64", "--ybound", "85", "--budget", "500"],
    "translate-witness": ["translate-search", "--a", "2,1", "--colouring", "mod:3",
                          "--prefix", "3", "--bbound", "10", "--xbound", "12"],
    "translate-none": ["translate-search", "--a", "2,1", "--colouring", "digitprofile:5",
                       "--prefix", "2", "--bbound", "10", "--xbound", "20"],
    "translate-budget": ["translate-search", "--a", "2,1", "--colouring", "mod:3",
                         "--prefix", "3", "--bbound", "10", "--xbound", "12",
                         "--budget", "100"],
    "force-forced": ["force", "--family", "ap:3", "--colours", "2", "--nmax", "12"],
    "force-not-forced": ["force", "--family", "schur", "--colours", "3", "--nmax", "13"],
    "force-budget": ["force", "--family", "schur", "--colours", "2", "--nmax", "8",
                     "--budget", "5"],
})
# x0, x1, (x0 + x1)/2 and x0 + x1: the last two differ by one in their 2-adic
# valuation, so alpha:2 colours them apart, and every depth-1 node, whose colour
# is known, tests a fractional row
CASES.update({"search-half-sum" + name: ["search", "--matrix-file", "tests/matrices/half-sum.json",
                                         "--colouring", "alpha:2", "--bound", "40"] + extra
              for name, extra in (("", []), ("-budget", ["--budget", "300"]))})
# gen in flag form for every family, optional trailing fields included, and in
# slug form; colour --kind for every colouring; the other small commands
CASES.update({"gen-" + name: ["gen"] + argv.split() for name, argv in {
    "schur": "schur",
    "f": "f --width 3",
    "fprime": "fprime --width 4",
    "fprime-rows": "fprime --width 4 --rows 5",
    "mt": "mt --coeffs 2,1 --width 4",
    "mt-rows": "mt --coeffs 2,1 --width 4 --rows 3",
    "band": "band --coeffs 1,2 --rows 3",
    "band-width": "band --coeffs 1,2 --rows 3 --width 6",
    "mpc": "mpc --m 2 --p 2 --c 1",
    "deuber": "deuber --m 2 --p 1 --c 1",
    "doubling": "doubling --n 3",
    "doublingsys": "doublingsys --n 3",
    "identity": "identity --n 3",
    "grouped": "grouped --coeffs 1,2",
    "rowsum": "rowsum --total 3 --width 2",
    "rowsum-rows-without-entry-bound": "rowsum --total 3 --width 2 --rows 2",
    "rowsum-entry-bound": "rowsum --total 3 --width 3 --entry-bound 2",
    "rowsum-entry-bound-rows": "rowsum --total 3 --width 3 --entry-bound 2 --rows 4",
    "ap": "ap --k 3",
    "slug-mt": "mt:2,1:4",
    "slug-deuber": "deuber:2,2,1",
    "slug-rowsum": "rowsum:3:3:2:4",
    "slug-band": "band:1,2:3:6",
}.items()})
CASES.update({"colour-" + name: ["colour", "--kind"] + argv.split() for name, argv in {
    "mod": "mod --modulus 3 1 2 3",
    "primeexp": "primeexp --b 2 --c 3 1 2 12",
    "alpha": "alpha --ratio 3/2 1 2 3",
    "digitprofile": "digitprofile --p 5 1 7 26",
    "notrapid": "notrapid --p 7 --coeffs 1,2 7 2500 282477650",
}.items()})
CASES.update({
    "image": ["image", "--family", "f:2", "--x", "1,2/3"],
    "digits-gap": ["digits", "--base", "-7", "--gap", "1,1,0,0,0", "282477650"],
    "digits-positive": ["digits", "--base", "10", "305", "7"],
    "certify-certified": ["certify", "--a-family", "schur", "--b-family", "schur",
                          "--c-family", "identity:2"],
    "certify-not-certified": ["certify", "--a-family", "f:2", "--b-family", "mpc:2,1,1",
                              "--c-family", "identity:2"],
    "rapid-check": ["rapid", "--p", "2", "--x", "1,3,7"],
    "rapid-make": ["rapid", "--p", "2", "--make", "--seeds", "3,5"],
})


def _report(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    if code == 3:
        return canonical({"exitCode": code, "stderr": err.getvalue()})
    assert code == 0, argv
    return out.getvalue()


def _golden(name):
    return (GOLDEN / (name + ".json")).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_replay(name):
    assert _report(CASES[name]) == _golden(name)


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0] in
                                        ("search", "translate-search")))
def test_threads_do_not_change_report(name):
    # --threads is echoed in params and must change nothing else, nodes included
    for threads in ("2", "8"):
        rep = json.loads(_report(CASES[name] + ["--threads", threads]))
        assert rep["params"]["threads"] == int(threads)
        rep["params"]["threads"] = 1
        assert canonical(rep) == _golden(name)


@pytest.mark.parametrize("name", ["separate-none", "search-01"])
def test_environment_does_not_change_report(name, monkeypatch):
    # the node budget comes from the request alone: RIPR_BUDGET is not read
    monkeypatch.setenv("RIPR_BUDGET", "5")
    assert _report(CASES[name]) == _golden(name)


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / (name + ".json")).write_bytes(_report(argv).encode("utf-8"))
    print("wrote %d reports to %s" % (len(CASES), GOLDEN), file=sys.stderr)
