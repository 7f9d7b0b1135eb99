"""Command line front end: instance files in, canonical JSON reports out.

An instance file is a JSON object with "vars" (variable names, fixing the
index order), "J" and "a" (arrays of monomials written as {name: exponent}
objects), an optional "field" ("Q" or "Fp:<prime>") and an optional "box"
({"lower": [...], "upper": [...]}).  Reports are emitted as canonical JSON
(sorted keys, 2-space indent, ASCII escapes) followed by a short human
summary; --quiet keeps just the JSON and --pretty keeps just the summary (the
two exclude each other), and builds no JSON document.

Exit codes: 0 success, 1 a verification/checklist failure, 2 invalid input,
3 a resource guard exceeded.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .annihilator import (
    AnnBoundsReport,
    HeightReport,
    annihilator_bounds,
    height_report,
    torsion_ideal,
)
from .cech import (
    CECH_GUARD_DEFAULT,
    AnnihilationVerdict,
    CechReport,
    DegreeBox,
    DegreeRanks,
    annihilation_check,
    cech_ranks,
)
from .cohomdim import CdReport, cohomological_dimension
from .errors import GuardExceededError, InvalidInputError, parse_int
from .linalg import FieldSpec
from .lynch import (
    SEARCH_GUARD_DEFAULT,
    LynchReport,
    build_instance,
    fixture,
    search_family,
    verify_instance,
)
from .monomial import Monomial, MonomialIdeal, VarSet, _trusted, default_names, minimalize
from .stanley_reisner import QuotientIdeal, QuotientRing, guard_ambient, krull_dim

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_GUARD_EXCEEDED = 3

# `\s` matches exactly the characters of `str.isspace`
_NAME_SEPARATOR = re.compile(r"[*^·\s]")


# ---------------------------------------------------------------- serialization

def monomial_to_obj(m: Monomial, names: list[str]) -> dict[str, int]:
    return {names[i]: e for i, e in enumerate(m.exponents) if e}


def ideal_to_list(ideal: MonomialIdeal, names: list[str]) -> list[dict[str, int]]:
    return [monomial_to_obj(g, names) for g in ideal.gens]


def varset_to_list(s: VarSet, names: list[str]) -> list[str]:
    return [names[i - 1] for i in sorted(s)]


def monomial_from_obj(obj: dict[str, int], index: dict[str, int]) -> Monomial:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"monomials must be objects mapping name to exponent, got {obj!r}")
    exps = [0] * len(index)
    mask = 0
    for name, e in obj.items():
        i = index.get(name)
        if i is None:
            raise InvalidInputError(f"monomial references undeclared variable {name!r}")
        if type(e) is not int or e < 0:  # bool is an int subclass; refuse it
            raise InvalidInputError(f"exponent of {name!r} must be a nonnegative integer")
        exps[i] = e
        if e:
            mask |= 1 << i
    return _trusted(tuple(exps), mask)  # every exponent was checked above


def parse_monomial_text(text: str, names: list[str]) -> Monomial:
    """Parse compact monomial syntax like x*y^2*z1 (or 1 for the identity)."""
    text = text.strip()
    if text in ("1", ""):
        return Monomial.identity(len(names))
    obj: dict[str, int] = {}
    for token in text.replace("·", "*").split("*"):
        token = token.strip()
        name, caret, exp = token.partition("^")
        e = parse_int(exp, f"the exponent in {token!r}") if caret else 1
        obj[name] = obj.get(name, 0) + e
    return monomial_from_obj(obj, {name: i for i, name in enumerate(names)})


class Instance:
    def __init__(self, names, ring, acting, field, box):
        self.names: list[str] = names
        self.ring: QuotientRing = ring
        self.acting: QuotientIdeal = acting
        self.field: FieldSpec = field
        self.box: DegreeBox | None = box


def load_instance(path: str, field_override: str | None, box_override: str | None) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer too long to convert
        raise InvalidInputError(f"instance file is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError("instance file is nested too deeply") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("instance file must be a JSON object")
    names = data.get("vars")
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(n, str) for n in names)
        or len(set(names)) != len(names)
    ):
        raise InvalidInputError("\"vars\" must be a nonempty list of unique names")
    for name in names:
        # `parse_monomial_text` splits on these and reads "1" and "" as the
        # identity, so such a name could not be named
        if _NAME_SEPARATOR.search(name):
            raise InvalidInputError(f"variable name {name!r} holds '*', '^', '·' or whitespace")
        if name in ("1", ""):
            raise InvalidInputError(f"variable name {name!r} reads as the identity monomial")
        try:
            name.encode("utf-8")  # a lone surrogate could not be written in a summary
        except UnicodeEncodeError as exc:
            raise InvalidInputError(f"variable name {name!r} is not UTF-8 text") from exc
    d = len(names)
    guard_ambient(d)
    for key in ("J", "a"):
        if key in data and not isinstance(data[key], list):
            raise InvalidInputError(f"\"{key}\" must be an array of monomial objects")
    index = {name: i for i, name in enumerate(names)}
    j_gens = [monomial_from_obj(o, index) for o in data.get("J", [])]
    a_gens = [monomial_from_obj(o, index) for o in data.get("a", [])]
    ring = QuotientRing(d, minimalize(j_gens, d))
    acting = QuotientIdeal(ring, minimalize(a_gens, d))
    field = FieldSpec.parse(field_override or data.get("field", "Q"))
    box = None
    if box_override is not None:
        box = parse_box_text(box_override, d)
    elif "box" in data:
        raw = data["box"]
        try:
            bounds = (raw["lower"], raw["upper"])
        except (TypeError, KeyError) as exc:
            raise InvalidInputError(f"malformed box: {exc}") from exc
        if not all(isinstance(b, list) for b in bounds):
            raise InvalidInputError("box bounds must be arrays")
        box = DegreeBox(*bounds)
        if len(box.lower) != d:
            raise InvalidInputError("box dimension does not match vars")
    return Instance(names, ring, acting, field, box)


def parse_box_text(text: str, d: int) -> DegreeBox:
    bounds = text.split(":")
    if len(bounds) != 2:
        raise InvalidInputError(f"cannot parse box {text!r}; use lo:hi")
    lo, hi = (parse_int(b, "a box bound", signed=True) for b in bounds)
    return DegreeBox.uniform(d, lo, hi)


def _header(report: str, field: FieldSpec) -> dict:
    """The three keys every report starts with: format version, report name and field."""
    return {"format_version": FORMAT_VERSION, "report": report, "field": field.label()}


def cd_report_dict(rep: CdReport, names) -> dict:
    return {
        **_header("cd", rep.field),
        "c": rep.c,
        "per_prime": [
            {"prime": varset_to_list(p, names), "cd": v} for p, v in rep.per_prime
        ],
    }


def ann_report_dict(rep: AnnBoundsReport, heights: HeightReport, names) -> dict:
    return {
        **_header("annihilator-bounds", rep.field),
        "c": rep.c,
        "delta": [varset_to_list(p, names) for p in rep.delta],
        "witnesses": [
            {
                "prime": varset_to_list(p, names),
                "witness": varset_to_list(q, names) if q is not None else None,
            }
            for p, q in rep.sigma_witnesses
        ],
        "lower": ideal_to_list(rep.lower, names),
        "upper": ideal_to_list(rep.upper, names) if rep.upper is not None else None,
        "exact": rep.exact,
        "exactness_reason": rep.exactness_reason,
        "heights": {
            "upper": heights.ht_upper,
            "annihilator": heights.ht_ann,
            "checks": [
                {"name": name, "holds": holds} for name, holds in heights.corollary_checks
            ],
        },
    }


def lynch_report_dict(rep: LynchReport, names) -> dict:
    inst = rep.instance
    return {
        **_header("lynch", rep.field),
        "params": {
            "d": inst.d,
            "X": varset_to_list(inst.X, names),
            "Y": varset_to_list(inst.Y, names),
            "Z": varset_to_list(inst.Z, names),
            "Xp": varset_to_list(inst.Xp, names),
            "Yp": varset_to_list(inst.Yp, names),
        },
        "claims": [
            {
                "claim": c.claim,
                "expected": c.expected,
                "computed": c.computed,
                "pass": c.passed,
            }
            for c in rep.checklist
        ],
        "c": rep.c,
        "annihilator": ideal_to_list(rep.annihilator_lift, names),
        "dim_modulo_torsion": rep.dim_modulo_torsion,
        "dim_modulo_annihilator": rep.dim_modulo_annihilator,
        "gap": rep.gap,
        "violated": rep.conjecture_violated,
        "all_claims_pass": rep.all_claims_pass(),
    }


def cech_report_dict(rep: CechReport, names) -> dict:
    """The oracle report; `_dump` writes its "nonzero_slices" from `rep.ranks`, one
    {"degree": [...], "ranks": [...]} object per nonzero degree, in sorted order."""
    return {
        **_header("cech-ranks", rep.field),
        "generators": [monomial_to_obj(g, names) for g in rep.generators],
        "box": {"lower": list(rep.box.lower), "upper": list(rep.box.upper)},
        "top_nonvanishing": rep.top_nonvanishing,
        "nonzero_slices": rep.ranks,
    }


def annihilation_dict(v: AnnihilationVerdict, m: Monomial, i: int, names, field) -> dict:
    return {
        **_header("cech-annihilation", field),
        "monomial": monomial_to_obj(m, names),
        "index": i,
        "verdict": v.verdict,
        "witness_degree": list(v.witness_degree) if v.witness_degree else None,
        "degrees_checked": v.degrees_checked,
        "coverage_gaps": v.coverage_gaps,
    }


_escape = json.encoder.encode_basestring_ascii  # the json module's own C escaper


def _dump(x, nl: str) -> str:
    """x in the bytes of the json module's dumps(x, sort_keys=True, indent=2).

    nl is the newline and indent of the line x starts on.  Reports hold only
    dicts with str keys, lists, str, int, bool and None, and the `DegreeRanks`
    of an oracle report, written as `_dump_nonzero` says; any other type, as a
    value or a key, raises TypeError.  A list of plain ints is joined in one
    call.
    """
    t = type(x)
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        items = [_escape(k) + ": " + _dump(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is list:
        if not x:
            return "[]"
        inner = nl + "  "
        if all(type(v) is int for v in x):
            items = map(int.__repr__, x)
        else:
            items = [_dump(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is str:
        return _escape(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if t is DegreeRanks:
        return _dump_nonzero(x, nl)
    raise TypeError(f"a report cannot hold {t.__name__} {x!r}")


def _dump_nonzero(ranks: DegreeRanks, nl: str) -> str:
    """The list of {"degree": list(deg), "ranks": list(r)} over the sorted
    `ranks.nonzero()`, as `_dump` writes it, with no object built per degree.

    Every degree of a nonzero cell has that cell's ranks, so each cell gets one
    text template: its ranks already written, and a %d slot per coordinate of
    the degree, at the indent the list's items start on.
    """
    pairs, cell_ranks = ranks._listing()
    if not pairs:
        return "[]"
    item, inner = nl + "  ", nl + "    "
    slots = ("," + inner + "  ").join(["%d"] * len(ranks.box.lower))
    head = "{" + inner + '"degree": [' + inner + "  " + slots + inner + "]," + inner
    templates = [head + '"ranks": ' + _dump(list(r), inner) + item + "}" for r in cell_ranks]
    return "[" + item + ("," + item).join([templates[k] % deg for deg, k in pairs]) + nl + "]"


# ------------------------------------------------------------------- commands

def _emit(build, summary, args) -> None:
    """Write the report that build() returns, unless --pretty, then the summary
    lines that summary() returns, unless --quiet."""
    chunks = []
    if not args.pretty:
        chunks.append(_dump(build(), "\n"))
    if not args.quiet:
        chunks += summary()
    sys.stdout.write("\n".join(chunks) + "\n")


def _cmd_cd(args) -> int:
    inst = load_instance(args.instance, args.field, None)
    rep = cohomological_dimension(inst.acting, inst.field)
    _emit(lambda: cd_report_dict(rep, inst.names), lambda: [
        f"cd = {rep.c} over {rep.field.label()}",
        *(f"  cd on R/({', '.join(varset_to_list(p, inst.names))}) = {v}"
          for p, v in rep.per_prime),
    ], args)
    return EXIT_OK


def _cmd_ann_bounds(args) -> int:
    inst = load_instance(args.instance, args.field, None)
    rep = annihilator_bounds(inst.acting, inst.field)
    _emit(lambda: ann_report_dict(rep, height_report(rep, inst.ring), inst.names), lambda: [
        f"c = {rep.c} over {rep.field.label()}",
        f"lower bound (lift): {rep.lower.pretty(inst.names)} + J",
        "upper bound (lift): "
        + (f"{rep.upper.pretty(inst.names)} + J" if rep.upper is not None else "none found"),
        f"exact: {rep.exact} ({rep.exactness_reason})",
    ], args)
    return EXIT_OK


def _cmd_gamma(args) -> int:
    inst = load_instance(args.instance, args.field, None)
    lift = torsion_ideal(inst.acting)
    is_zero = lift == inst.ring.relations
    dim = inst.ring.dim if is_zero else krull_dim(lift)
    _emit(lambda: {
        **_header("torsion", inst.field),
        "torsion_lift": ideal_to_list(lift, inst.names),
        "torsion_is_zero": is_zero,
        "dim_modulo_torsion": dim,
    }, lambda: [
        f"torsion submodule lift: {lift.pretty(inst.names)}"
        + (" (torsion is zero)" if is_zero else ""),
        f"dim R/torsion = {dim}",
    ], args)
    return EXIT_OK


def _parse_indexset(text: str, what: str) -> list[int]:
    """The comma-separated indices of a variable set; `build_instance` checks them."""
    return [parse_int(tok.strip(), f"an index of {what}") for tok in text.split(",") if tok.strip()]


def _lynch_summary(rep: LynchReport, names) -> list[str]:
    marks = "  ".join(
        f"{c.claim} {'ok' if c.passed else 'FAIL'}" for c in rep.checklist
    )
    return [
        f"c = {rep.c}; ann(H^c) = {rep.annihilator_lift.pretty(names)} + J",
        f"dim(R/torsion) = {rep.dim_modulo_torsion}, "
        f"dim(R/ann) = {rep.dim_modulo_annihilator}, gap = {rep.gap}",
        f"conjecture violated: {rep.conjecture_violated}",
        f"claims: {marks}",
    ]


def _verify_and_emit(field: FieldSpec, inst, names, args) -> int:
    rep = verify_instance(inst, field)
    _emit(lambda: lynch_report_dict(rep, names), lambda: _lynch_summary(rep, names), args)
    return EXIT_OK if rep.all_claims_pass() else EXIT_VERIFICATION_FAILED


def _cmd_lynch_verify(args) -> int:
    field = FieldSpec.parse(args.field or "Q")
    d = args.d
    inst = build_instance(
        d, *(_parse_indexset(getattr(args, k), k) for k in ("X", "Y", "Z", "Xp", "Yp"))
    )
    return _verify_and_emit(field, inst, default_names(d), args)


def _cmd_lynch_fixture(args) -> int:
    field = FieldSpec.parse(args.field or "Q")
    inst, names = fixture(args.name, d=args.d, l=args.l)
    return _verify_and_emit(field, inst, names, args)


def _cmd_lynch_search(args) -> int:
    field = FieldSpec.parse(args.field or "Q")
    reports = search_family(args.max_d, field, guard=args.guard)
    violated = sum(1 for r in reports if r.conjecture_violated)
    all_pass = all(r.all_claims_pass() for r in reports)

    def build() -> dict:
        return {
            **_header("lynch-search", field),
            "max_d": args.max_d,
            "instances": len(reports),
            "violations": violated,
            "all_claims_pass": all_pass,
            "reports": [lynch_report_dict(r, default_names(r.instance.d)) for r in reports],
        }

    def summary() -> list[str]:
        """The gap table, one row per instance, above three totals."""
        header = (
            f"{'d':>2} {'|X|':>3} {'|Y|':>3} {'|Z|':>3} {'|Xp|':>4} {'|Yp|':>4} {'c':>2} "
            f"{'dim R/G':>7} {'dim R/ann':>9} {'gap':>3} {'violated':>8} {'claims':>6}"
        )
        rows = [header, "-" * len(header)]
        for r in reports:
            inst = r.instance
            rows.append(
                f"{inst.d:>2} {len(inst.X):>3} {len(inst.Y):>3} {len(inst.Z):>3} "
                f"{len(inst.Xp):>4} {len(inst.Yp):>4} {r.c:>2} "
                f"{r.dim_modulo_torsion:>7} {r.dim_modulo_annihilator:>9} {r.gap:>3} "
                f"{str(r.conjecture_violated):>8} "
                f"{'all ok' if r.all_claims_pass() else 'FAIL':>6}"
            )
        return rows + [
            f"{len(reports)} canonical instances with d <= {args.max_d}",
            f"claims pass on all instances: {all_pass}",
            f"conjecture violated on {violated} instances "
            f"(exactly those with |Z| > |X|: "
            f"{violated == sum(1 for r in reports if r.instance.gap_formula > 0)})",
        ]

    _emit(build, summary, args)
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def _oracle_instance(args) -> tuple[Instance, DegreeBox]:
    inst = load_instance(args.instance, args.field, args.box)
    return inst, inst.box or DegreeBox.uniform(inst.ring.ambient)


def _cmd_oracle_ranks(args) -> int:
    inst, box = _oracle_instance(args)
    rep = cech_ranks(inst.acting, box, inst.field, guard=args.guard)
    _emit(lambda: cech_report_dict(rep, inst.names), lambda: [
        f"top nonvanishing index in box: {rep.top_nonvanishing} over {inst.field.label()}",
        f"nonzero slices: {rep.ranks.nonzero_count()} of {rep.ranks.box.volume()} degrees",
    ], args)
    return EXIT_OK


def _cmd_oracle_ann(args) -> int:
    inst, box = _oracle_instance(args)
    m = parse_monomial_text(args.monomial, inst.names)
    verdict = annihilation_check(m, inst.acting, args.i, box, inst.field, guard=args.guard)
    _emit(lambda: annihilation_dict(verdict, m, args.i, inst.names, inst.field), lambda: [
        f"{m.pretty(inst.names)} on H^{args.i}: {verdict.verdict}"
        + (f" at degree {list(verdict.witness_degree)}" if verdict.witness_degree else ""),
        f"degrees checked: {verdict.degrees_checked}, coverage gaps: {verdict.coverage_gaps}",
    ], args)
    return EXIT_OK


def natural(text: str) -> int:
    """argparse type of the count and guard flags: ASCII digits only."""
    return parse_int(text)


def integer(text: str) -> int:
    """argparse type of --i: ASCII digits, after an optional '-'."""
    return parse_int(text, signed=True)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topann",
        description="Annihilators of top local cohomology over Stanley-Reisner rings.",
    )
    parser.add_argument("--field", default=None, help="coefficient field: Q or Fp:<prime>")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--quiet", action="store_true", help="suppress the human summary")
    output.add_argument(
        "--pretty", action="store_true", help="human summary only, no JSON block"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cd = sub.add_parser("cd", help="cohomological dimension report")
    p_cd.add_argument("instance")
    p_cd.set_defaults(func=_cmd_cd)

    p_ann = sub.add_parser("ann-bounds", help="annihilator bounds with exactness certificate")
    p_ann.add_argument("instance")
    p_ann.set_defaults(func=_cmd_ann_bounds)

    p_gamma = sub.add_parser("gamma", help="torsion submodule (H^0) lift")
    p_gamma.add_argument("instance")
    p_gamma.set_defaults(func=_cmd_gamma)

    p_lynch = sub.add_parser("lynch", help="counterexample family commands")
    lynch_sub = p_lynch.add_subparsers(dest="lynch_cmd", required=True)
    p_verify = lynch_sub.add_parser("verify", help="verify one parameter tuple")
    p_verify.add_argument("--d", type=natural, required=True)
    for flag in ("--X", "--Y", "--Z", "--Xp", "--Yp"):
        p_verify.add_argument(flag, dest=flag.lstrip("-"), required=True)
    p_verify.set_defaults(func=_cmd_lynch_verify)
    p_fixture = lynch_sub.add_parser("fixture", help="verify a named fixture")
    p_fixture.add_argument("name")
    p_fixture.add_argument("--d", type=natural, default=None)
    p_fixture.add_argument("--l", type=natural, default=None)
    p_fixture.set_defaults(func=_cmd_lynch_fixture)
    p_search = lynch_sub.add_parser("search", help="sweep the canonical family")
    p_search.add_argument("--max-d", dest="max_d", type=natural, required=True)
    p_search.add_argument("--guard", type=natural, default=SEARCH_GUARD_DEFAULT)
    p_search.set_defaults(func=_cmd_lynch_search)

    p_oracle = sub.add_parser("oracle", help="multigraded Cech verification")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    p_ranks = oracle_sub.add_parser("ranks", help="cohomology ranks per degree in a box")
    p_ranks.add_argument("instance")
    p_ranks.add_argument("--box", default=None, help="uniform box lo:hi")
    p_ranks.add_argument("--guard", type=natural, default=CECH_GUARD_DEFAULT)
    p_ranks.set_defaults(func=_cmd_oracle_ranks)
    p_oann = oracle_sub.add_parser("ann", help="does a monomial annihilate H^i in the box?")
    p_oann.add_argument("instance")
    p_oann.add_argument("--monomial", required=True)
    p_oann.add_argument("--i", type=integer, required=True)
    p_oann.add_argument("--box", default=None, help="uniform box lo:hi")
    p_oann.add_argument("--guard", type=natural, default=CECH_GUARD_DEFAULT)
    p_oann.set_defaults(func=_cmd_oracle_ann)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error (guard): {exc}", file=sys.stderr)
        return EXIT_GUARD_EXCEEDED
    except InvalidInputError as exc:
        print(f"error (invalid input): {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
