"""CLI contract: every argv ends with exit 0, 2 or 3 and never a traceback.

argv is drawn from the subcommand grammar, with bad slugs, zero and negative
bounds and malformed matrix or report files mixed in.  Sizes stay small so
every run is quick, except where a draw aims at a size guard: gen and force
families about 3000 wide (matrix generation and force image enumeration) and
separate/translate-search prefixes 19-24 (compiled rows); those must be
refused quickly.  A prefix of 18 is refused only with a system of two or more
terms (one-term systems compile 2^19 - 2 rows, just inside the guard, in
about 7 s), so it is pinned in the examples.  --threads stays small (the
searches start no threads).
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from ripr.cli import main

RUN_SECONDS = 5.0

FILES = {
    "empty": "",
    "notjson": "rows?",
    "scalar": "7",
    "null": "null",
    "flat": "[1, 2]",
    "ragged": "[[1, 2], [3]]",
    "float": "[[1.5, 2]]",
    "bool": "[[true, 1]]",
    "string-entry": '[["1", 2]]',
    "dense": "[[1, 1], [1, 0], [0, 1]]",
    "dense-zero-row": "[[0, 0], [1, 1]]",
    "dense-obj": '{"dense": [[1, 2]], "width": 2}',
    "dense-bad": '{"dense": 5}',
    "dense-narrow": '{"dense": [[1, 2, 3]], "width": 1}',
    "sparse": '{"width": 2, "rows": [[[0, 1, 1]], [[1, 1, 2]]]}',
    "sparse-no-rows": '{"width": 2}',
    "sparse-short-triple": '{"width": 2, "rows": [[[0, 1]]]}',
    "sparse-zero-den": '{"width": 2, "rows": [[[0, 1, 0]]]}',
    "sparse-bad-col": '{"width": 2, "rows": [[[5, 1, 1]]]}',
    "sparse-neg-width": '{"width": -1, "rows": []}',
    "sparse-str-width": '{"width": "2", "rows": [[[0, 1, 1]]]}',
    "sparse-rows-scalar": '{"width": 2, "rows": 3}',
    "report": '{"schemaVersion": 1, "command": "gen", "outcome": "ok"}',
    "report-list": "[]",
}

small = st.integers(min_value=-2, max_value=4)
pos = st.integers(min_value=-2, max_value=7)


def _ints(lo=-3, hi=4, max_size=3):
    return st.lists(st.integers(lo, hi), min_size=0, max_size=max_size).map(
        lambda v: ",".join(map(str, v))
    )


def _family():
    sized = st.tuples(
        st.sampled_from(["f", "fprime", "identity", "ap", "doubling", "doublingsys"]),
        st.integers(-1, 4),
    ).map(lambda t: "%s:%d" % t)
    coeffs = st.tuples(
        st.sampled_from(["mt", "band"]), _ints(-2, 2, 3), st.integers(-1, 3)
    ).map(lambda t: "%s:%s:%d" % t)
    triples = st.tuples(
        st.sampled_from(["mpc", "deuber"]), st.integers(-1, 2), st.integers(-1, 2),
        st.integers(-1, 2),
    ).map(lambda t: "%s:%d,%d,%d" % t)
    rowsum = st.tuples(st.integers(-1, 3), st.integers(-1, 3)).map(
        lambda t: "rowsum:%d:%d" % t
    )
    junk = st.sampled_from(["schur", "f", "f:x", "mt:1,1:2", "grouped:1,2", "grouped:",
                            "nope:1", "", ":", "mpc:1,1"])
    return st.one_of(sized, coeffs, triples, rowsum, junk)


def _wide_family():
    """Families about 3000 wide (or with about 3000 rows), past the size guards."""
    wide = st.integers(2990, 3010)
    sized = st.tuples(
        st.sampled_from(["f", "fprime", "identity", "ap", "doubling", "doublingsys"]), wide,
    ).map(lambda t: "%s:%d" % t)
    coeffs = st.tuples(st.sampled_from(["mt", "band"]), _ints(1, 2, 3), wide).map(
        lambda t: "%s:%s:%d" % t)
    rowsum = st.tuples(st.integers(1, 3), wide).map(lambda t: "rowsum:%d:%d" % t)
    return st.one_of(sized, coeffs, rowsum)


def _colouring():
    return st.one_of(
        st.tuples(st.sampled_from(["mod", "digitprofile"]), st.integers(-1, 5)).map(
            lambda t: "%s:%d" % t
        ),
        st.sampled_from(["primeexp:2:3", "primeexp:1:1", "primeexp:1/2:3", "alpha:2",
                         "alpha:1", "alpha:1/0", "alpha:0", "alpha:3/2", "notrapid:7:1,2",
                         "notrapid:6:1", "notrapid:7:", "notrapid:3:1,-1,1", "notrapid:x",
                         "mod", "bogus:1", ""]),
    )


def _matrix(prefix=""):
    """--family/--matrix-file (or --<prefix>-family/--<prefix>-file) args."""
    fam_flag = "--%s-family" % prefix if prefix else "--family"
    file_flag = "--%s-file" % prefix if prefix else "--matrix-file"
    return st.one_of(
        _family().map(lambda f: [fam_flag, f]),
        st.sampled_from(sorted(FILES) + ["missing", "directory"]).map(
            lambda name: [file_flag, "@" + name]
        ),
        st.just([]),
    )


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _cat(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


def _argv():
    lit = lambda *t: st.just(list(t))
    budget = _opt("--budget", st.integers(-1, 60))
    threads = _opt("--threads", st.integers(-1, 3))
    wide = st.one_of(small, st.integers(2990, 3010))
    prefix = st.one_of(st.integers(-1, 3), st.integers(19, 24))
    gen = _cat(lit("gen"), st.one_of(_family(), _wide_family(), st.sampled_from(
        ["f", "fprime", "mt", "band", "mpc", "deuber", "doubling", "doublingsys", "identity",
         "grouped", "rowsum", "ap", "nope"])).map(lambda f: [f]),
        _opt("--width", wide), _opt("--rows", small), _opt("--coeffs", _ints(-2, 2)),
        _opt("--m", small), _opt("--p", small), _opt("--c", small),
        _opt("--total", small), _opt("--entry-bound", small), _opt("--n", wide),
        _opt("--k", small))
    image = _cat(lit("image"), _matrix(), _opt("--x", st.sampled_from(
        ["1,2", "1/2,3", "1/0", "", "a", "1,2,3,4", "-1,0"])))
    digits = _cat(lit("digits", "--base"), st.integers(-12, 12).map(lambda b: [str(b)]),
                  _opt("--gap", _ints(0, 7, 6)),
                  st.lists(st.integers(-10**6, 10**6).map(str), max_size=3))
    colour = _cat(lit("colour", "--kind"), st.sampled_from(
        ["mod", "primeexp", "alpha", "digitprofile", "notrapid", "bogus"]).map(lambda k: [k]),
        _opt("--modulus", small), _opt("--b", st.sampled_from(["2", "1/2", "0", "x"])),
        _opt("--c", st.sampled_from(["3", "2", "-1"])), _opt("--ratio", st.sampled_from(
            ["2", "1", "0", "3/2", "1/0"])), _opt("--p", st.integers(-1, 13)),
        _opt("--coeffs", _ints(-3, 3)),
        st.lists(st.integers(-3, 10**5).map(str), max_size=3))
    search = _cat(lit("search"), _matrix(), _opt("--colouring", _colouring()),
                  _opt("--bound", pos), _opt("--min-entry", small),
                  st.sampled_from([[], ["--distinct-entries"], ["--distinct-image"]]),
                  threads, budget)
    force = _cat(lit("force"), st.one_of(_matrix(), _wide_family().map(
        lambda f: ["--family", f])), _opt("--colours", st.integers(-1, 3)),
        _opt("--nmax", st.integers(-2, 7)), budget)
    separate = _cat(lit("separate"), _opt("--a", _ints()), _opt("--b", _ints()),
                    _opt("--colouring", _colouring()), _opt("--prefix", prefix),
                    _opt("--bound", pos), budget)
    dominate = _cat(lit("dominate"), _matrix("a"), _matrix("b"),
                    _opt("--x", st.sampled_from(["1,2", "1,4,16", "0", "1/2,1", "", "1"])),
                    _opt("--ybound", pos), budget)
    certify = _cat(lit("certify"), _matrix("a"), _matrix("b"), _matrix("c"))
    rapid = _cat(lit("rapid"), _opt("--p", st.integers(-1, 5)),
                 st.sampled_from([[], ["--make"]]), _opt("--x", _ints(-1, 600)),
                 _opt("--seeds", _ints(-1, 9)))
    translate = _cat(lit("translate-search"), _opt("--a", _ints()),
                     _opt("--colouring", _colouring()), _opt("--prefix", prefix),
                     _opt("--bbound", st.integers(-1, 4)), _opt("--xbound", pos),
                     threads, budget)
    diff = _cat(lit("diff"), st.lists(st.sampled_from(sorted(FILES) + ["missing"]).map(
        lambda name: "@" + name), min_size=0, max_size=3))
    junk = st.lists(st.sampled_from(["bogus", "--", "-h", "search", "--bound", "x"]),
                    max_size=3)
    command = st.one_of(gen, image, digits, colour, search, force, separate, dominate,
                        certify, rapid, translate, diff, junk)
    extras = st.sampled_from([[], ["--timing"], ["--out", "@out"]])
    return _cat(command, extras)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-contract")
    paths = {}
    for name, text in FILES.items():
        paths[name] = root / (name + ".json")
        paths[name].write_text(text)
    paths["missing"] = root / "missing.json"
    paths["directory"] = root
    paths["out"] = root / "out" / "report.json"
    (root / "out").mkdir()
    return {name: str(p) for name, p in paths.items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(argv=_argv())
def test_cli_exits_0_2_or_3_without_traceback(files, argv):
    argv = [files[t[1:]] if t.startswith("@") else t for t in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage line plus one error line
            code = e.code
            assert code in (0, 2), (argv, code)
            assert code == 0 or err.getvalue().splitlines()[-1].startswith("ripr")
        else:
            assert code in (0, 2, 3), (argv, code)
            if code:
                assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
            else:
                json.loads(out.getvalue())
    assert time.monotonic() - start < RUN_SECONDS, argv
    assert "Traceback" not in err.getvalue()


def test_cli_contract_examples(files):
    # concrete cases the grammar above covers, pinned so a regression names them
    cases = [
        (["diff", files["report-list"], files["report"]], 2),
        (["search", "--matrix-file", files["float"], "--colouring", "mod:2", "--bound", "3"], 2),
        (["search", "--matrix-file", files["flat"], "--colouring", "mod:2", "--bound", "3"], 2),
        (["image", "--matrix-file", files["dense-bad"], "--x", "1"], 2),
        (["image", "--matrix-file", files["sparse-zero-den"], "--x", "1,2"], 2),
        (["force", "--matrix-file", files["report-list"], "--colours", "2", "--nmax", "3"], 2),
        (["image", "--matrix-file", files["sparse-short-triple"], "--x", "1,2"], 2),
        (["image", "--matrix-file", files["sparse-rows-scalar"], "--x", "1,2"], 2),
        (["search", "--family", "f:2", "--colouring", "mod:2", "--bound", "0"], 2),
        (["search", "--family", "f:2", "--colouring", "mod:2", "--bound", "3", "--threads",
          "0"], 2),
        (["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2", "--prefix", "0",
          "--bound", "-1"], 0),
        # the size guards: force image enumeration, matrix generation, compiled rows
        (["force", "--family", "band:1,1:3000", "--colours", "2", "--nmax", "5"], 2),
        # identity:w answers bound 1 from the image {1}, inside or past the force guard
        (["force", "--family", "identity:3000", "--colours", "2", "--nmax", "5"], 0),
        (["force", "--family", "identity:18", "--colours", "2", "--nmax", "3"], 0),
        (["force", "--family", "identity:23", "--colours", "2", "--nmax", "3"], 0),
        (["gen", "f:20"], 2),
        (["gen", "fprime:3000"], 2),
        (["gen", "doublingsys", "--n", "3000"], 2),
        (["gen", "identity:600000"], 2),
        (["gen", "ap:600000"], 2),
        (["gen", "band:1:600000"], 2),
        (["gen", "mpc:13,2,1"], 2),
        (["gen", "deuber:13,1,1"], 2),
        # at least 2^m - 1 rows: refused before the exact count is computed
        (["gen", "mpc:1000000,1000000,1"], 2),
        (["gen", "deuber:1000000,1000000,1"], 2),
        (["gen", "mt:1:20"], 2),
        (["gen", "rowsum:11:23:1"], 2),
        (["gen", "rowsum:100000:100000:0"], 2),
        # a row budget builds only the rows it keeps
        (["gen", "mt:1:20:5"], 0),
        (["gen", "mt:2,1:3000:5"], 0),
        # mpc and deuber are guarded by the rows they build, not by (p+1)^m
        (["gen", "mpc:2,10000,1"], 0),
        (["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2", "--prefix", "18",
          "--bound", "3"], 2),
        # the row guard stops counting once the count passes it
        (["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2", "--prefix", "10000",
          "--bound", "3"], 2),
        (["translate-search", "--a", "2,1", "--colouring", "mod:2", "--prefix", "18",
          "--bbound", "1", "--xbound", "3"], 2),
        (["translate-search", "--a", "1", "--colouring", "mod:2", "--prefix", "19",
          "--bbound", "1", "--xbound", "3"], 2),
        (["gen", "fprime:3000:5"], 0),
        # many colours, whose classes are filed, and 7 colours over a long span,
        # whose classes are masks: both stop at the budget within the time limit
        (["search", "--family", "schur", "--colouring", "mod:1000", "--bound", "1000000",
          "--budget", "3000000"], 0),
        (["search", "--family", "f:3", "--colouring", "mod:7", "--bound", "10000000",
          "--distinct-entries", "--budget", "3000000"], 0),
        # separation colours its classes step by step: a witness in the first
        # steps leaves the rest of a 10^7 span uncoloured, and three dense
        # classes over 10^6 values take their bits a chunk at a time
        (["separate", "--a", "1", "--b", "2,1", "--colouring", "alpha:2", "--prefix", "2",
          "--bound", "10000000"], 0),
        (["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:3", "--prefix", "2",
          "--bound", "1000000"], 0),
    ]
    for argv, want in cases:
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.monotonic() - start < RUN_SECONDS, argv
        assert code == want, (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) == (1 if want else 0), (argv, err.getvalue())
