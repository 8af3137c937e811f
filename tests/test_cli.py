import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

import ripr

from ripr.cli import (
    _COLOURINGS,
    _FAMILIES,
    ExperimentSpec,
    canonical,
    load_matrix,
    main,
    parse_colouring,
    parse_family,
    report_diff,
    run,
)
from ripr.matgen import finite_sums_matrix, schur_matrix


def _capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_readme_cli_examples_run(capsys):
    # the ripr lines of the sh block under README's "## CLI" that name no file
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    ran = bounds = 0
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] != ["ripr"] or any(a.endswith(".json") for a in argv):
            continue
        code, out, err = _capture(capsys, argv[1:])
        assert code == 0, (argv, err)
        ran += 1
        # a trailing "# bound N" comment states the answer
        bound = re.search(r"#\s*bound (\d+)", line)
        if bound:
            assert json.loads(out)["bound"] == int(bound.group(1)), argv
            bounds += 1
    assert (ran, bounds) == (12, 1)


def test_canonical_format():
    assert canonical({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'


def test_parse_family_slugs():
    assert parse_family("schur") == schur_matrix()
    assert parse_family("f:3") == finite_sums_matrix(3)
    assert len(parse_family("mt:2,1:3").rows) == 5
    assert parse_family("identity:4").width == 4
    with pytest.raises(ValueError):
        parse_family("zzz")
    with pytest.raises(ValueError):
        parse_family("f")  # missing width argument
    for surplus in ("f:3:9", "schur:1", "mt:2,1:4:3:1", "mpc:2,2,1:1"):
        with pytest.raises(ValueError):
            parse_family(surplus)


@pytest.mark.parametrize("slug", ["fprime:4:0", "fprime:4:-3", "mt:2,1:4:0", "mt:2,1:4:-3",
                                  "rowsum:4:3:2:0"])
def test_rows_field_keeps_at_least_one_row(slug):
    assert len(parse_family(slug)) == 1


def test_parse_colouring_slugs():
    assert parse_colouring("mod:3").params["m"] == 3
    assert parse_colouring("alpha:3/2").params["base"] == 3
    assert parse_colouring("notrapid:7:1,2").kind == "notrapid"
    with pytest.raises(ValueError):
        parse_colouring("nope:1")
    with pytest.raises(ValueError):
        parse_colouring("notrapid:6:1")  # base not prime
    for surplus in ("mod:3:1", "alpha:2:2", "notrapid:7:1,2:3"):
        with pytest.raises(ValueError):
            parse_colouring(surplus)


@pytest.mark.parametrize("slug", ["mod:20000000", "digitprofile:120"])
def test_parse_colouring_costs_nothing_per_colour(slug):
    # a colouring is built without listing the colours it can take
    tracemalloc.start()
    try:
        parse_colouring(slug)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_load_matrix_formats(tmp_path):
    dense = tmp_path / "m.json"
    dense.write_text(json.dumps([[1, 0], [0, 1], [1, 1]]))
    M = load_matrix(dense)
    assert M.dense() == [(1, 0), (0, 1), (1, 1)]
    keyed = tmp_path / "k.json"
    keyed.write_text(json.dumps({"dense": [[2, 1]], "width": 3}))
    assert load_matrix(keyed).width == 3
    trip = tmp_path / "t.json"
    trip.write_text(json.dumps(M.to_obj()))
    assert load_matrix(trip) == M


def test_run_replay_is_byte_identical():
    spec = ExperimentSpec(
        "search",
        {"family": "f:3", "colouring": "mod:3", "bound": 12, "threads": 2},
    )
    first = canonical(run(spec))
    second = canonical(run(spec))
    assert first == second
    assert first.endswith("\n")


def test_run_timing_sidecar_opt_in():
    spec = ExperimentSpec("gen", {"family": "schur"})
    plain = run(spec)
    timed = run(spec, timing=True)
    assert "timing" not in plain
    assert timed["timing"]["wallMs"] >= 0
    assert report_diff(plain, timed) == []


def test_run_unknown_command():
    with pytest.raises(ValueError):
        run(ExperimentSpec("bogus", {}))


def test_report_diff_paths():
    l = {"schemaVersion": 1, "a": [1, 2], "b": {"c": 3}}
    r = {"schemaVersion": 1, "a": [1, 5], "b": {}}
    diffs = report_diff(l, r)
    paths = {d["path"] for d in diffs}
    assert paths == {"/a/1", "/b/c"}
    byp = {d["path"]: d for d in diffs}
    assert byp["/b/c"]["right"] == "<absent>"
    with pytest.raises(ValueError):
        report_diff({"schemaVersion": 1}, {"schemaVersion": 2})


def test_main_gen(capsys):
    code, out, _ = _capture(capsys, ["gen", "f", "--width", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["rowCount"] == 7
    assert rep["schemaVersion"] == 1
    assert out == canonical(rep)  # stdout already canonical


def test_main_search_witness(capsys):
    code, out, _ = _capture(
        capsys,
        ["search", "--family", "schur", "--colouring", "mod:2", "--bound", "10"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "witness"
    assert rep["witness"]["assignment"] == [2, 2]
    assert rep["witness"]["image"] == [[2, 1], [4, 1]]


def test_main_image_fields(capsys):
    code, out, _ = _capture(capsys, ["image", "--family", "f:2", "--x", "1,2"])
    rep = json.loads(out)
    assert code == 0
    assert rep["values"] == [[1, 1], [2, 1], [3, 1]]
    assert rep["provenance"] == {"1": 0, "2": 1, "3": 2}
    assert rep["natural"] is True
    _, out2, _ = _capture(capsys, ["image", "--family", "identity:1", "--x", "1/2"])
    rep2 = json.loads(out2)
    assert rep2["values"] == [[1, 2]]
    assert rep2["natural"] is False


def test_main_digits_with_gap(capsys):
    n = "282477650"
    code, out, _ = _capture(
        capsys, ["digits", "--base", "-7", "--gap", "1,1,0,0,0", n]
    )
    rep = json.loads(out)
    assert code == 0
    rec = rep["expansions"][0]
    assert rec["gapSites"] == [[4, 10]]
    assert rec["gapResidue"] == 1
    assert rec["leastSignificantDigit"] == 1  # lowest nonzero digit, at position 4
    assert rec["support"] == [4, 10]


def test_main_colour_notrapid(capsys):
    code, out, _ = _capture(
        capsys,
        ["colour", "--kind", "notrapid", "--p", "7", "--coeffs", "1,2", "7", "2500"],
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["colours"][0] == ["small"]
    assert rep["colours"][1][0] == "big"
    assert rep["reserved"] == [True, False]
    assert rep["common"] is None


def test_main_force_and_rapid(capsys):
    code, out, _ = _capture(
        capsys, ["force", "--family", "schur", "--colours", "2", "--nmax", "8"]
    )
    rep = json.loads(out)
    assert code == 0 and rep["bound"] == 5
    code, out, _ = _capture(capsys, ["rapid", "--p", "2", "--x", "3,512"])
    assert code == 0 and json.loads(out)["rapid"] is True
    code, out, _ = _capture(capsys, ["rapid", "--p", "2", "--make", "--seeds", "3,5"])
    assert code == 0 and json.loads(out)["sequence"] == [3, 2560]


def test_main_translate_search(capsys):
    code, out, _ = _capture(
        capsys,
        ["translate-search", "--a", "2,1", "--colouring", "mod:2",
         "--prefix", "2", "--bbound", "8", "--xbound", "10"],
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["witness"] == {"b": 2, "x": [2, 4], "colour": 0}
    assert rep["lastCoefficientOne"] is True


def test_main_separate_none(capsys):
    code, out, _ = _capture(
        capsys,
        ["separate", "--a", "1", "--b", "2,1", "--colouring", "notrapid:7:1,2",
         "--prefix", "3", "--bound", "200"],
    )
    rep = json.loads(out)
    assert code == 0  # absence is still a completed run
    assert rep["outcome"] == "none-within-bounds"
    assert rep["witness"] is None


def test_main_usage_errors(capsys):
    code, _, err = _capture(capsys, ["gen", "zzz"])
    assert code == 2 and "error:" in err
    code, _, err = _capture(capsys, ["gen", "f"])  # missing --width
    assert code == 2
    code, _, err = _capture(
        capsys, ["digits", "--base", "-7", "--gap", "1,1", "50"]
    )
    assert code == 2 and "five digits" in err
    code, _, err = _capture(capsys, ["image", "--x", "1,2"])
    assert code == 2  # no family and no file


@pytest.mark.parametrize("argv, flags", [
    (["image", "--x", "1,2"], "--family or --matrix-file"),
    (["dominate", "--b-family", "f:2", "--x", "1,2", "--ybound", "3"], "--a-family or --a-file"),
    (["dominate", "--a-family", "f:2", "--x", "1,2", "--ybound", "3"], "--b-family or --b-file"),
    (["certify", "--a-family", "f:2", "--b-family", "f:2"], "--c-family or --c-file"),
])
def test_missing_matrix_names_its_flags(capsys, argv, flags):
    assert _capture(capsys, argv) == (2, "", "error: need %s\n" % flags)


@pytest.mark.parametrize("base, gap, message", [
    ("7", "1,1,0,0,0", "--gap needs a negative base"),
    ("7", "", "--gap needs a negative base"),
    ("-7", "", "gap pattern needs five digits: upper,l0,l1,l2,l3"),
])
def test_gap_pattern_is_never_ignored(capsys, base, gap, message):
    # a positive base, or an empty pattern, used to drop the pattern silently and exit 0
    argv = ["digits", "--base", base, "--gap", gap, "100"]
    assert _capture(capsys, argv) == (2, "", "error: %s\n" % message)


def test_main_bad_inputs_exit_2_with_one_error_line(tmp_path, capsys):
    no_rows = tmp_path / "no_rows.json"
    no_rows.write_text(json.dumps({"width": 2}))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("5")
    for argv in (
        ["image", "--family", "f:2", "--x", "1/0"],
        ["image", "--matrix-file", str(no_rows), "--x", "1,2"],
        ["image", "--matrix-file", str(scalar), "--x", "1,2"],
        ["rapid", "--p", "1", "--x", "3,5"],
        ["rapid", "--p", "0", "--make", "--seeds", "3,5"],
        ["rapid", "--p", "2", "--make", "--seeds", ","],
    ):
        code, out, err = _capture(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_main_search_and_dominate_deeper_than_the_recursion_limit(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"width": 3000, "rows": [[[2999, 1, 1]]]}))
    code, out, _ = _capture(
        capsys,
        ["search", "--matrix-file", str(wide), "--colouring", "mod:2", "--bound", "2"],
    )
    rep = json.loads(out)
    assert code == 0 and rep["outcome"] == "witness"
    assert rep["witness"]["assignment"] == [1] * 3000
    code, out, _ = _capture(
        capsys,
        ["dominate", "--a-file", str(wide), "--b-file", str(wide),
         "--x", ",".join(["1"] * 3000), "--ybound", "2"],
    )
    rep = json.loads(out)
    assert code == 0 and rep["outcome"] == "witness"
    assert rep["witness"]["assignment"] == [1] * 3000


def test_main_rejects_enumerations_past_the_guard(capsys):
    for argv in (
        ["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2",
         "--prefix", "24", "--bound", "3"],
        ["translate-search", "--a", "2,1", "--colouring", "mod:2",
         "--prefix", "24", "--bbound", "3", "--xbound", "3"],
    ):
        start = time.monotonic()
        code, out, err = _capture(capsys, argv)
        assert time.monotonic() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ["separate", "--a", "1", "--b", "-1", "--colouring", "mod:2",
     "--prefix", "21", "--bound", "3"],
    ["translate-search", "--a", "1", "--colouring", "mod:2",
     "--prefix", "21", "--bbound", "3", "--xbound", "3"],
])
def test_main_rejects_prefixes_past_the_row_guard(argv, capsys):
    # one-term systems have few candidates per entry but 2**21 - 1 rows each
    start = time.monotonic()
    code, out, err = _capture(capsys, argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "rows" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["search", "--family", "f:3:9", "--colouring", "mod:2", "--bound", "3"],
    ["search", "--family", "schur:1", "--colouring", "mod:2", "--bound", "3"],
    ["search", "--family", "f:3", "--colouring", "mod:3:1", "--bound", "3"],
    ["gen", "mt:2,1:4:3:1"],
])
def test_main_rejects_surplus_slug_fields(argv, capsys):
    code, out, err = _capture(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "takes" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, key, slug, same", [
    (["gen", "mt", "--coeffs", "2, 1", "--width", "4"], "family", "mt:2,1:4",
     ["gen", "mt:2,1:4"]),
    (["gen", "mt:2, 1:4"], "family", "mt:2,1:4", ["gen", "mt:2,1:4"]),
    (["colour", "--kind", "alpha", "--ratio", "06", "5"], "colouring", "alpha:6",
     ["colour", "--kind", "alpha", "--ratio", "6", "5"]),
    (["search", "--family", "f:2", "--colouring", "mod: 2", "--bound", "4"], "colouring",
     "mod:2", ["search", "--family", "f:2", "--colouring", "mod:2", "--bound", "4"]),
])
def test_reports_echo_canonical_slugs(argv, key, slug, same, capsys):
    # equal requests spelled differently give byte-identical reports
    code, out, err = _capture(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["params"][key] == slug
    assert _capture(capsys, same) == (0, out, "")


def test_one_process_answers_like_fresh_processes(monkeypatch, capsys):
    # main reuses one parser: a usage error must leave nothing behind for later requests
    argvs = [
        ["search", "--family", "f:2", "--bound", "x"],
        ["gen", "f:2"],
        ["colour", "--kind", "mod", "--modulus", "3", "4", "5"],
        ["force", "--family", "schur", "--colours", "2", "--nmax", "8"],
        ["bogus"],
        ["search", "--family", "f:2", "--colouring", "mod:2", "--bound", "4",
         "--distinct-entries"],
        ["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2", "--prefix", "2",
         "--bound", "6"],
        ["colour", "--kind", "mod", "5"],
        ["gen", "mt", "--coeffs", "2,1", "--width", "3"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(ripr.__file__).parents[1]))
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ripr.cli", *argv], capture_output=True,
                               text=True, env=env, timeout=60)
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# one valid text per gen/colour flag, so that every table entry builds
_FLAG_TEXTS = {
    "gen": {"width": "5", "rows": "3", "coeffs": "1,2", "m": "2", "p": "2", "c": "1",
            "total": "3", "entry-bound": "2", "n": "3", "k": "3"},
    "colour": {"modulus": "3", "b": "2", "c": "3", "ratio": "3/2", "p": "7", "coeffs": "1,2"},
}


def _flag_forms(command, name, table):
    """(flag argv, slug) of table entry name, for each count of optional fields given."""
    fields = table[name][1:]
    texts = _FLAG_TEXTS[command]
    required = sum(not f.optional for f in fields)
    for given in range(required, len(fields) + 1):
        argv = [t for f in fields[:given] for flag in f.flags for t in ("--" + flag, texts[flag])]
        slug = ":".join([name] + [",".join(texts[flag] for flag in f.flags)
                                  for f in fields[:given]])
        yield argv, slug


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_gen_flags_equal_the_slug(name, capsys):
    for argv, slug in _flag_forms("gen", name, _FAMILIES):
        code, out, err = _capture(capsys, ["gen", name] + argv)
        assert code == 0, (argv, err)
        assert json.loads(out)["params"]["family"] == slug
        assert _capture(capsys, ["gen", slug]) == (0, out, "")


@pytest.mark.parametrize("kind", list(_COLOURINGS))
def test_colour_flags_equal_the_slug(kind, capsys):
    numbers = [1, 2, 7, 2500, 282477650]
    for argv, slug in _flag_forms("colour", kind, _COLOURINGS):
        code, out, err = _capture(
            capsys, ["colour", "--kind", kind] + argv + [str(x) for x in numbers]
        )
        assert code == 0, (argv, err)
        assert out == canonical(run(ExperimentSpec(
            "colour", {"colouring": slug, "numbers": numbers})))


def test_main_force_enumerates_images_only_as_deep_as_the_walk(tmp_path, capsys):
    start = time.monotonic()
    code, out, _ = _capture(
        capsys, ["force", "--family", "schur", "--colours", "2", "--nmax", "100000"]
    )
    assert time.monotonic() - start < 1
    rep = json.loads(out)
    assert code == 0 and rep["bound"] == 5 and rep["certificate"] == [0, 1, 1, 0]
    # The only image of 2000*(x1 + ... + x12) is one value of at least 24000,
    # so the walk colours 1, 2, 3, ... with 0 and goes deep; the column box up
    # to 8000 holds 4**12 assignments, past the enumeration guard.
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"width": 12, "rows": [[[c, 2000, 1] for c in range(12)]]}))
    start = time.monotonic()
    code, out, err = _capture(
        capsys, ["force", "--matrix-file", str(sparse), "--colours", "2", "--nmax", "100000"]
    )
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n=8000" in err and err.count("\n") == 1, err


def test_main_search_budget_zero_means_zero(capsys):
    code, out, _ = _capture(
        capsys,
        ["search", "--family", "schur", "--colouring", "mod:2", "--bound", "10",
         "--budget", "0"],
    )
    rep = json.loads(out)
    assert code == 0
    assert (rep["outcome"], rep["nodes"], rep["exhausted"]) == ("budget", 1, False)


@pytest.mark.parametrize("argv", [
    ["search", "--family", "schur", "--colouring", "mod:2", "--bound", "10"],
    ["dominate", "--a-family", "f:4", "--b-family", "ap:3", "--x", "1,4,16,64",
     "--ybound", "85"],
    ["separate", "--a", "1", "--b", "2,1", "--colouring", "mod:2", "--prefix", "3",
     "--bound", "20"],
    ["translate-search", "--a", "2,1", "--colouring", "mod:3", "--prefix", "2",
     "--bbound", "4", "--xbound", "10"],
    ["force", "--family", "schur", "--colours", "2", "--nmax", "8"],
    # requests answered before any node is tried
    ["separate", "--a", "1", "--b", "2", "--colouring", "mod:2", "--prefix", "3",
     "--bound", "20"],
    ["force", "--family", "schur", "--colours", "2", "--nmax", "0"],
])
def test_main_negative_budget_is_refused(capsys, argv):
    code, out, err = _capture(capsys, argv + ["--budget", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_main_budget_exit(capsys):
    code, _, err = _capture(
        capsys,
        ["force", "--family", "schur", "--colours", "2", "--nmax", "8",
         "--budget", "5"],
    )
    assert code == 3
    assert "budget" in err


def test_main_out_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, out, _ = _capture(
        capsys, ["gen", "schur", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text() == out


def test_main_diff_flow(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    _capture(capsys, ["gen", "schur", "--out", str(a)])
    _capture(capsys, ["gen", "schur", "--timing", "--out", str(b)])
    _capture(capsys, ["gen", "f", "--width", "2", "--out", str(c)])
    code, out, _ = _capture(capsys, ["diff", str(a), str(b)])
    assert code == 0
    assert json.loads(out)["outcome"] == "identical"  # timing ignored
    code, out, _ = _capture(capsys, ["diff", str(a), str(c)])
    assert code == 0
    rep = json.loads(out)
    assert rep["outcome"] == "different"
    assert rep["differences"]
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"schemaVersion": 99}))
    code, _, err = _capture(capsys, ["diff", str(a), str(skew)])
    assert code == 2 and "schema" in err


def test_main_diff_timing_sidecar(tmp_path, capsys):
    a = tmp_path / "a.json"
    _capture(capsys, ["gen", "schur", "--out", str(a)])
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    code, out, _ = _capture(capsys, ["diff", str(a), str(a), "--out", str(plain)])
    assert code == 0 and "timing" not in json.loads(out)
    code, out, _ = _capture(capsys, ["diff", str(a), str(a), "--timing", "--out", str(timed)])
    rep = json.loads(out)
    assert code == 0 and rep["outcome"] == "identical" and rep["timing"]["wallMs"] >= 0
    code, out, _ = _capture(capsys, ["diff", str(plain), str(timed)])
    assert code == 0 and json.loads(out)["identical"] is True
    assert report_diff(json.loads(plain.read_text()), rep) == []


def test_main_missing_file(tmp_path, capsys):
    code, _, err = _capture(
        capsys, ["image", "--matrix-file", str(tmp_path / "nope.json"), "--x", "1"]
    )
    assert code == 2
