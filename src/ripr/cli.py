"""Command line front end producing canonical JSON reports.

Reports are emitted as canonical JSON (sorted keys, tight separators, one
trailing newline) so replaying an experiment spec yields byte-identical
output.  Wall-clock time never enters the canonical body: the optional
--timing flag adds a "timing" sidecar key which report_diff ignores.

Matrix families and colourings are named by slugs: a name, then one
':'-separated text per field of its entry in _FAMILIES or _COLOURINGS
(f:3, mt:2,1:4, deuber:2,2,1, notrapid:7:1,2).  The gen and colour flags
spell the same fields (gen mt --coeffs 2,1 --width 4 is gen mt:2,1:4), and
the report echoes the slug.  Every other option is echoed in the report's
params under its camelCase name (--min-entry as minEntry).

Exit codes: 0 completed (including "none found" outcomes), 2 bad usage or
invalid input, 3 node budget exceeded where the operation cannot report it
in-band.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import colourings, matgen, search
from .digits import GapPattern, base_digits, find_gaps, gap_residue, negabase_digits
from .ratcore import DimensionMismatch, FiniteMatrix, entry_ratio, image, is_natural_image
from .seqs import coeff_seq

SCHEMA_VERSION = 1


@dataclass
class ExperimentSpec:
    command: str
    params: dict


def parse_rational(text):
    t = str(text).strip()
    if "/" in t:
        num, den = (int(u) for u in t.split("/", 1))
        if den == 0:
            raise ValueError("zero denominator in %r" % t)
        return Fraction(num, den)
    return int(t)


def parse_int_list(text):
    return [int(t) for t in str(text).split(",") if t.strip() != ""]


def rat_obj(v):
    num, den = entry_ratio(v)
    return [num, den]


def colour_obj(c):
    if isinstance(c, tuple):
        return [colour_obj(v) for v in c]
    if isinstance(c, Fraction):
        return rat_obj(c)
    return c


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


class _Field(NamedTuple):
    """One slug field: its flag (or a comma group of flags such as m,p,c),
    the converter of each flag's text, and whether the field may be left out."""

    flags: tuple
    convert: object
    optional: bool


def _field(flags, convert=int, optional=False):
    return _Field(tuple(flags.split(",")), convert, optional)


# A slug is the name, then one ':'-separated text per field, in order; trailing
# optional fields may be left out in order.  The same fields spell the gen and
# colour flags.  Each entry is (builder, *fields); the builder takes the field
# values in order, a group's values one by one.
_FAMILIES = {
    "schur": (matgen.schur_matrix,),
    "f": (matgen.finite_sums_matrix, _field("width")),
    "fprime": (matgen.pairwise_sum_rows, _field("width"), _field("rows", optional=True)),
    "mt": (matgen.milliken_taylor_rows, _field("coeffs", parse_int_list), _field("width"),
           _field("rows", optional=True)),
    "band": (matgen.band_matrix, _field("coeffs", parse_int_list), _field("rows"),
             _field("width", optional=True)),
    "mpc": (matgen.mpc_matrix, _field("m,p,c")),
    "deuber": (matgen.deuber_matrix, _field("m,p,c")),
    "rowsum": (matgen.constant_rowsum_rows, _field("total"), _field("width"),
               _field("entry-bound", optional=True), _field("rows", optional=True)),
    "doubling": (matgen.doubling_block_matrix, _field("n")),
    "doublingsys": (matgen.doubling_system, _field("n")),
    "identity": (matgen.identity_matrix, _field("n")),
    "grouped": (matgen.grouped_sum_matrix, _field("coeffs", parse_int_list)),
    "ap": (matgen.arithmetic_progression_matrix, _field("k")),
}

_COLOURINGS = {
    "mod": (colourings.mod_colouring, _field("modulus")),
    "primeexp": (colourings.prime_exponent_colouring, _field("b", parse_rational),
                 _field("c", parse_rational)),
    "alpha": (colourings.ratio_colouring, _field("ratio", parse_rational)),
    "digitprofile": (colourings.digit_profile_colouring, _field("p")),
    "notrapid": (colourings.negabase_gap_colouring, _field("p"),
                 _field("coeffs", parse_int_list)),
}


def _slug_grammar(name, fields):
    """The slug pattern of a table entry, e.g. mt:coeffs:width[:rows]."""
    text = name
    for f in fields:
        part = ":" + ",".join(f.flags)
        text += "[" + part if f.optional else part
    return text + "]" * sum(f.optional for f in fields)


def _slug_fields(table, what, slug):
    """(name, converted value of each field given) of a slug; a comma group's
    value is the list of its flags' values."""
    name, *texts = str(slug).split(":")
    if name not in table:
        raise ValueError("unknown %s %r" % (what, name))
    fields = table[name][1:]
    if not sum(not f.optional for f in fields) <= len(texts) <= len(fields):
        raise ValueError("%s %r takes %s" % (what, name, _slug_grammar(name, fields)))
    values = []
    for f, text in zip(fields, texts):
        if len(f.flags) == 1:
            values.append(f.convert(text))
            continue
        group = [f.convert(t) for t in text.split(",") if t.strip() != ""]
        if len(group) != len(f.flags):
            raise ValueError("%s %r needs %s in one field" % (what, name, ",".join(f.flags)))
        values.append(group)
    return name, values


def _parse_slug(table, what, slug):
    name, values = _slug_fields(table, what, slug)
    build, *fields = table[name]
    args = []
    for f, value in zip(fields, values):
        args += value if len(f.flags) > 1 else [value]
    try:
        return build(*args)
    except (IndexError, TypeError) as e:
        raise ValueError("bad arguments for %s %r: %s" % (what, name, e))


def _canonical_slug(table, what, slug):
    """The slug spelled from its converted fields: mt:2, 1:4 is mt:2,1:4."""
    name, values = _slug_fields(table, what, slug)
    return ":".join([name] + [",".join(map(str, v)) if isinstance(v, list) else str(v)
                              for v in values])


def parse_family(slug):
    """Build a matrix from a family slug like f:3, mt:2,1:4 or deuber:2,2,1."""
    return _parse_slug(_FAMILIES, "matrix family", slug)


def load_matrix(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, (list, dict)):
        raise ValueError("matrix file must hold a list of rows or an object")
    try:
        if isinstance(obj, list):
            return FiniteMatrix.from_dense(obj)
        if "dense" in obj:
            return FiniteMatrix.from_dense(obj["dense"], obj.get("width"))
        return FiniteMatrix.from_obj(obj)
    except (TypeError, ZeroDivisionError) as e:  # a float entry, a scalar row, a zero denominator
        raise ValueError("malformed matrix in %s: %s" % (path, e))


def _matrix_from(params, family_key="family", file_key="matrixFile"):
    if params.get(family_key):
        return parse_family(params[family_key])
    if params.get(file_key):
        return load_matrix(params[file_key])
    raise ValueError("need %s or %s" % (_flag(family_key), _flag(file_key)))


def _flag(key):
    """The flag that a report param comes from: aFamily is --a-family."""
    return "--" + "".join("-" + ch.lower() if ch.isupper() else ch for ch in key)


def parse_colouring(slug):
    """Build a colouring from a slug like mod:3, alpha:3/2 or notrapid:7:1,2."""
    return _parse_slug(_COLOURINGS, "colouring", slug)


def _search_config(params):
    return search.SearchConfig(
        variable_bound=params["bound"],
        min_entry=params.get("minEntry", 1),
        distinct_entries=params.get("distinctEntries", False),
        distinct_image=params.get("distinctImage", False),
        node_budget=params.get("budget"),
    )


def _h_gen(params):
    M = _matrix_from(params)
    return {"outcome": "ok", "matrix": M.to_obj(), "rowCount": len(M.rows)}


def _h_image(params):
    M = _matrix_from(params)
    x = [parse_rational(t) for t in params["x"]]
    img = image(M, x)
    return {
        "outcome": "ok",
        "values": [rat_obj(v) for v in img.sorted_values()],
        "provenance": {str(v): img.provenance[v] for v in img.values},
        "natural": is_natural_image(M, x),
    }


def _h_digits(params):
    base = params["base"]
    if abs(base) < 2:
        raise ValueError("|base| must be at least 2")
    gap = None
    if params.get("gap") is not None:
        if base > 0:
            raise ValueError("--gap needs a negative base")
        g = parse_int_list(params["gap"])
        if len(g) != 5:
            raise ValueError("gap pattern needs five digits: upper,l0,l1,l2,l3")
        gap = GapPattern(g[0], tuple(g[1:]))
    out = []
    for x in params["numbers"]:
        e = negabase_digits(x, -base) if base < 0 else base_digits(x, base)
        rec = {
            "x": x,
            "digits": list(e.digits),
            "support": list(e.support()),
            "maxSupport": e.max_support(),
            "minSupport": e.min_support(),
        }
        if base < 0:
            rec["leastSignificantDigit"] = e.digit(e.min_support())
            if gap is not None:
                rec["gapSites"] = sorted(list(s) for s in find_gaps(x, -base, gap))
                rec["gapResidue"] = gap_residue(x, -base, gap)
        out.append(rec)
    return {"outcome": "ok", "expansions": out}


def _h_colour(params):
    col = parse_colouring(params["colouring"])
    xs = params["numbers"]
    cols = [col.colour(x) for x in xs]
    # the common colour is the least number's colour, if every number has it
    common = cols[xs.index(min(xs))] if xs else None
    if any(c != common for c in cols):
        common = None
    return {
        "outcome": "ok",
        "colours": [colour_obj(c) for c in cols],
        "common": colour_obj(common) if common is not None else None,
        "reserved": [c in col.reserved for c in cols],
    }


def _assignment_obj(witness):
    return {
        "assignment": list(witness.assignment),
        "image": [rat_obj(v) for v in witness.image.sorted_values()],
        "colour": colour_obj(witness.colour),
    }


def _search_report(res, witness_obj=_assignment_obj):
    """The nodes, exhausted, outcome and witness of a search result;
    witness_obj gives a witness's report object."""
    if res.witness is None:
        outcome, witness = "none-within-bounds" if res.exhausted else "budget", None
    else:
        outcome, witness = "witness", witness_obj(res.witness)
    return {"nodes": res.nodes, "exhausted": res.exhausted, "outcome": outcome,
            "witness": witness}


def _h_search(params):
    M = _matrix_from(params)
    col = parse_colouring(params["colouring"])
    res = search.find_monochromatic(M, col, _search_config(params), params.get("threads", 1))
    return _search_report(res)


def _h_force(params):
    M = _matrix_from(params)
    res = search.forcing_bound(
        M, params["colours"], params["nmax"], params.get("budget")
    )
    return {
        "outcome": "forced" if res.bound is not None else "not-forced-within-nmax",
        "bound": res.bound,
        "certificate": list(res.certificate),
        "nodes": res.nodes,
    }


def _h_separate(params):
    col = parse_colouring(params["colouring"])
    rep = search.check_separation(
        col,
        params["a"],
        params["b"],
        params["prefix"],
        params["bound"],
        params.get("budget"),
    )
    out = {"outcome": rep.outcome, "nodes": rep.nodes}
    out["ratio"] = rat_obj(rep.ratio) if rep.ratio is not None else None
    if rep.witness is None:
        out["witness"] = None
    else:
        out["witness"] = {
            "x": list(rep.witness["x"]),
            "y": list(rep.witness["y"]),
            "colour": colour_obj(rep.witness["colour"]),
        }
    return out


def _h_dominate(params):
    A = _matrix_from(params, "aFamily", "aFile")
    B = _matrix_from(params, "bFamily", "bFile")
    x = [parse_rational(t) for t in params["x"]]
    res = search.find_dominated_assignment(A, B, x, params["ybound"], params.get("budget"))
    return _search_report(res)


def _h_certify(params):
    A = _matrix_from(params, "aFamily", "aFile")
    B = _matrix_from(params, "bFamily", "bFile")
    C = _matrix_from(params, "cFamily", "cFile")
    rep = search.certify_ipr(A, B, C)
    return {
        "outcome": "certified" if rep.certified else "not-certified",
        "certified": rep.certified,
        "reason": rep.reason,
    }


def _h_rapid(params):
    p = params["p"]
    if params.get("make"):
        seq = search.make_rapid(p, params["seeds"])
        return {"outcome": "ok", "sequence": list(seq)}
    return {"outcome": "ok", "rapid": search.is_rapid(params["x"], p)}


def _h_translate(params):
    col = parse_colouring(params["colouring"])
    res = search.translate_witness(
        col,
        params["a"],
        params["prefix"],
        params["bbound"],
        params["xbound"],
        params.get("budget"),
        params.get("threads", 1),
    )
    out = _search_report(res, lambda w: {"b": w[0], "x": list(w[1]), "colour": colour_obj(w[2])})
    out["lastCoefficientOne"] = coeff_seq(params["a"])[-1] == 1
    return out


def _h_diff(params):
    reports = []
    for side in ("left", "right"):
        with open(params[side]) as fh:
            reports.append(json.load(fh))
    diffs = report_diff(*reports)
    return {"identical": not diffs, "differences": diffs,
            "outcome": "identical" if not diffs else "different"}


_HANDLERS = {
    "gen": _h_gen,
    "image": _h_image,
    "digits": _h_digits,
    "colour": _h_colour,
    "search": _h_search,
    "force": _h_force,
    "separate": _h_separate,
    "dominate": _h_dominate,
    "certify": _h_certify,
    "rapid": _h_rapid,
    "translate-search": _h_translate,
    "diff": _h_diff,
}


# params holding a slug, with the table that spells it
_FAMILY_PARAM = (_FAMILIES, "matrix family")
_SLUG_PARAMS = {"family": _FAMILY_PARAM, "aFamily": _FAMILY_PARAM, "bFamily": _FAMILY_PARAM,
                "cFamily": _FAMILY_PARAM, "colouring": (_COLOURINGS, "colouring")}


def _echoed(params):
    """params with every slug in its canonical spelling, so that equal requests
    echo equal params."""
    out = dict(params)
    for key, (table, what) in _SLUG_PARAMS.items():
        if out.get(key):
            out[key] = _canonical_slug(table, what, out[key])
    return out


def run(spec, timing=False):
    """Execute an experiment spec and return the report dict."""
    handler = _HANDLERS.get(spec.command)
    if handler is None:
        raise ValueError("unknown command %r" % spec.command)
    start = time.monotonic()
    body = handler(spec.params)
    report = {"schemaVersion": SCHEMA_VERSION, "command": spec.command,
              "params": _echoed(spec.params)}
    report.update(body)
    if timing:
        report["timing"] = {"wallMs": int((time.monotonic() - start) * 1000)}
    return report


def report_diff(left, right):
    """Structured differences between two reports, ignoring timing sidecars.

    Raises on schema version mismatch; two reports from different schema
    generations are not comparable.
    """
    if not isinstance(left, dict) or not isinstance(right, dict):
        raise ValueError("reports must be JSON objects")
    if left.get("schemaVersion") != right.get("schemaVersion"):
        raise ValueError(
            "schema mismatch: %r vs %r"
            % (left.get("schemaVersion"), right.get("schemaVersion"))
        )
    diffs = []

    def walk(path, l, r):
        if isinstance(l, dict) and isinstance(r, dict):
            for k in sorted(set(l) | set(r)):
                if not path and k == "timing":
                    continue
                walk(path + "/" + k, l.get(k, "<absent>"), r.get(k, "<absent>"))
            return
        if isinstance(l, list) and isinstance(r, list):
            if len(l) != len(r):
                diffs.append({"path": path + "/length", "left": len(l), "right": len(r)})
                return
            for i, (lv, rv) in enumerate(zip(l, r)):
                walk("%s/%d" % (path, i), lv, rv)
            return
        if l != r:
            diffs.append({"path": path or "/", "left": l, "right": r})

    walk("", left, right)
    return diffs


def _add_matrix_args(sp, prefix=""):
    if prefix:
        sp.add_argument("--%s-family" % prefix)
        sp.add_argument("--%s-file" % prefix)
    else:
        sp.add_argument("--family")
        sp.add_argument("--matrix-file")


def _add_slug_flags(sp, table):
    """One flag per slug field flag in table, int-typed where its converter is int."""
    flags = {flag: f.convert for _, *fields in table.values() for f in fields for flag in f.flags}
    for flag, convert in flags.items():
        sp.add_argument("--" + flag, type=int if convert is int else None)


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process:
    building it costs more than parsing a small request."""
    ap = argparse.ArgumentParser(prog="ripr", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    threads_help = (
        "accepted for compatibility (at least 1); the search runs in one "
        "thread and the report differs only in this echoed value"
    )

    g = sub.add_parser("gen", help="generate a matrix family")
    g.add_argument("family", help="family name or full slug (f, fprime, mt, band, ...)")
    _add_slug_flags(g, _FAMILIES)

    im = sub.add_parser("image", help="image of a matrix at an assignment")
    _add_matrix_args(im)
    im.add_argument("--x", required=True, help="comma separated entries, rationals allowed")

    d = sub.add_parser("digits", help="digit expansions, optionally with gap statistics")
    d.add_argument("--base", type=int, required=True, help="negative for negabase")
    d.add_argument("--gap", help="pattern upper,l0,l1,l2,l3 (negabase only)")
    d.add_argument("numbers", nargs="+", type=int)

    c = sub.add_parser("colour", help="evaluate a colouring")
    c.add_argument("--kind", required=True, choices=list(_COLOURINGS))
    _add_slug_flags(c, _COLOURINGS)
    c.add_argument("numbers", nargs="+", type=int)

    s = sub.add_parser("search", help="least monochromatic-image assignment")
    _add_matrix_args(s)
    s.add_argument("--colouring", required=True)
    s.add_argument("--bound", type=int, required=True)
    s.add_argument("--min-entry", type=int, default=1)
    s.add_argument("--distinct-entries", action="store_true")
    s.add_argument("--distinct-image", action="store_true")
    s.add_argument("--threads", type=int, default=1, help=threads_help)
    s.add_argument("--budget", type=int)

    f = sub.add_parser("force", help="least n forcing a monochromatic image")
    _add_matrix_args(f)
    f.add_argument("--colours", type=int, required=True)
    f.add_argument("--nmax", type=int, required=True)
    f.add_argument("--budget", type=int)

    se = sub.add_parser("separate", help="search for a joint monochromatic witness")
    se.add_argument("--a", required=True, help="comma separated coefficients")
    se.add_argument("--b", required=True)
    se.add_argument("--colouring", required=True)
    se.add_argument("--prefix", type=int, required=True)
    se.add_argument("--bound", type=int, required=True)
    se.add_argument("--budget", type=int)

    do = sub.add_parser("dominate", help="probe for an image inside a target image")
    _add_matrix_args(do, "a")
    _add_matrix_args(do, "b")
    do.add_argument("--x", required=True)
    do.add_argument("--ybound", type=int, required=True)
    do.add_argument("--budget", type=int)

    ce = sub.add_parser("certify", help="check a linear image-partition-regularity witness")
    for pfx in ("a", "b", "c"):
        _add_matrix_args(ce, pfx)

    ra = sub.add_parser("rapid", help="check or build rapidly growing sequences")
    ra.add_argument("--p", type=int, required=True)
    ra.add_argument("--x")
    ra.add_argument("--make", action="store_true")
    ra.add_argument("--seeds")

    tr = sub.add_parser("translate-search", help="least translated joint witness")
    tr.add_argument("--a", required=True)
    tr.add_argument("--colouring", required=True)
    tr.add_argument("--prefix", type=int, required=True)
    tr.add_argument("--bbound", type=int, required=True)
    tr.add_argument("--xbound", type=int, required=True)
    tr.add_argument("--threads", type=int, default=1, help=threads_help)
    tr.add_argument("--budget", type=int)

    df = sub.add_parser("diff", help="compare two reports")
    df.add_argument("left")
    df.add_argument("right")

    for name, sp in sub.choices.items():
        sp.add_argument("--out", help="also write the report to this file")
        sp.add_argument("--timing", action="store_true", help="add a wall-clock sidecar")
    return ap


def _slug_from_flags(table, name, args):
    """The slug that the gen/colour flags spell for table entry name."""
    slug = name
    for f in table[name][1:]:
        values = [getattr(args, flag.replace("-", "_")) for flag in f.flags]
        if None in values:
            if f.optional:
                break
            raise ValueError("%s requires %s" % (name, " ".join("--" + flag for flag in f.flags)))
        slug += ":" + ",".join(map(str, values))
    return slug


# report params converted from their flag's text; every other option is echoed as parsed
_LIST_PARAMS = {"a": parse_int_list, "b": parse_int_list, "x": lambda t: str(t).split(",")}


def _spec_from_args(args):
    cmd = args.command
    if cmd == "gen":
        fam = args.family
        if ":" not in fam:
            if fam not in _FAMILIES:
                raise ValueError("unknown family %r" % fam)
            fam = _slug_from_flags(_FAMILIES, fam, args)
        return ExperimentSpec("gen", {"family": fam})
    if cmd == "colour":
        colouring = _slug_from_flags(_COLOURINGS, args.kind, args)
        return ExperimentSpec("colour", {"colouring": colouring, "numbers": args.numbers})
    if cmd == "rapid":
        key = "seeds" if args.make else "x"
        if not getattr(args, key):
            raise ValueError("--make requires --seeds" if args.make
                             else "rapid requires --x (or --make with --seeds)")
        return ExperimentSpec("rapid", {"p": args.p, "make": args.make,
                                        key: parse_int_list(getattr(args, key))})
    params = {}
    for dest, value in vars(args).items():
        if dest not in ("command", "out", "timing"):
            head, *rest = dest.split("_")
            key = head + "".join(w.capitalize() for w in rest)  # min_entry -> minEntry
            params[key] = _LIST_PARAMS[dest](value) if dest in _LIST_PARAMS else value
    return ExperimentSpec(cmd, params)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        report = run(_spec_from_args(args), timing=args.timing)
    except (ValueError, DimensionMismatch, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except search.BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return 3
    text = canonical(report)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
