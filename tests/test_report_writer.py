"""The report writer reproduces json.dumps(sort_keys=True, indent=2) byte for byte,
also where it writes the oracle ranks array from per-cell templates."""
from __future__ import annotations

import json
import os
import random

import pytest

from topann.cech import cech_ranks
from topann.cli import _dump, cech_report_dict, ideal_to_list, load_instance, main

import _oracles as orc

# ASCII, quote, backslash, control characters, non-ASCII, astral and lone surrogates
_CHARS = ["a", "Z", "0", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
          "ξ", "€", "\u2028", "\U0001f600", "\U0010ffff", "\ud800", "\udfff"]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 5)))


def _int(rng: random.Random) -> int:
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice((-1, 1)) * rng.randrange(10 ** 3999, 10 ** 4000)
    if kind < 3:
        return rng.randint(-10 ** 20, 10 ** 20)
    return rng.randint(-3, 3)


def _scalar(rng: random.Random):
    return rng.choice((_text, _int, lambda r: r.choice((True, False, 1, 0, None))))(rng)


def _document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 4 else 2)
    if kind == 0:
        return _scalar(rng)
    if kind == 1:  # the fast path, or one bool among ints that must leave it
        xs = [_int(rng) for _ in range(rng.randint(0, 4))]
        if xs and rng.random() < 0.3:
            xs[rng.randrange(len(xs))] = rng.choice((True, False))
        return xs
    if kind in (2, 3):
        return {_text(rng): _document(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    return [_document(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(20221)
    for _ in range(2_000):
        doc = {"report": _document(rng)} if rng.random() < 0.5 else _document(rng)
        assert _dump(doc, "\n") == json.dumps(doc, sort_keys=True, indent=2), doc


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1, 2}, {1: "a"}, {"a": [0, 0.0]}, [{"b": (3,)}], {None: 1},
], ids=["float", "tuple", "set", "int-key", "nested-float", "nested-tuple", "none-key"])
def test_writer_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        _dump(value, "\n")


# ------------------------------------------------------- the oracle ranks array

_README = os.path.join(os.path.dirname(__file__), "golden", "instances", "readme.json")
_FIELDS = ("Q", "Fp:2", "Fp:3")


def _oracle_cases(tmp_path):
    """(instance path, field, uniform box) of oracle ranks runs, None for the
    file's own: random rings with 1 to 7 variables in boxes with some lo == hi
    coordinates, a box that holds no cohomology, and multi-digit negative bounds."""
    rng = random.Random(2206)
    for n in range(140):
        d = n % 7 + 1
        names = [f"x{k}" for k in range(1, d + 1)]
        lower, upper = [], []
        for _ in range(d):
            if rng.random() < 0.2:
                lo = hi = rng.choice((-2, -1, 0, 0, 1))
            else:  # cohomology needs degree 0 on the variables a leaves free
                lo, hi = rng.randint(-3 if d < 5 else -2, 0), rng.randint(0, 1)
            lower.append(lo)
            upper.append(hi)
        if n % 2:
            a = orc.random_monomial_ideal(rng, d, max_gens=5)
        else:
            a = orc.random_squarefree_ideal(rng, d, allow_zero=False)
        doc = {
            "vars": names,
            "J": ideal_to_list(orc.random_squarefree_ideal(rng, d), names),
            "a": ideal_to_list(a, names),
            "box": {"lower": lower, "upper": upper},
        }
        path = tmp_path / f"ring{n}.json"
        path.write_text(json.dumps(doc))
        yield str(path), _FIELDS[n % 3], None
    # x is a nonzerodivisor and H^1_(x)(k[x]) lives in negative degrees only
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vars": ["x"], "J": [], "a": [{"x": 1}],
                                "box": {"lower": [0], "upper": [3]}}))
    yield str(path), None, None
    for field in _FIELDS:
        yield _README, field, "-12:12"


def test_oracle_ranks_writes_the_bytes_of_one_object_per_degree(tmp_path, capsys):
    # the array written from per-cell templates against json.dumps of the
    # per-degree objects it stands for
    seen = {"empty": 0, "several-rank-tuples": 0, "flat-coordinate": 0, "two-digit": 0}
    variables = set()
    for path, field, box in _oracle_cases(tmp_path):
        field_flag = [f"--field={field}"] if field else []
        box_flag = [f"--box={box}"] if box else []
        assert main(["--quiet", *field_flag, "oracle", "ranks", path, *box_flag]) == 0
        out = capsys.readouterr().out
        inst = load_instance(path, field, box)
        rep = cech_ranks(inst.acting, inst.box, inst.field)
        nonzero = rep.ranks.nonzero()
        doc = cech_report_dict(rep, inst.names)
        doc["nonzero_slices"] = [{"degree": list(deg), "ranks": list(r)} for deg, r in nonzero]
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", (path, field, box)
        seen["empty"] += not nonzero
        if nonzero:
            variables.add(len(inst.names))
        seen["several-rank-tuples"] += len({r for _, r in nonzero}) > 1
        seen["flat-coordinate"] += bool(nonzero) and inst.box.lower != inst.box.upper and any(
            lo == hi for lo, hi in zip(inst.box.lower, inst.box.upper))
        seen["two-digit"] += any(x <= -10 for deg, _ in nonzero for x in deg)
    assert variables == set(range(1, 8))
    assert seen["empty"] >= 1 and seen["two-digit"] == 3
    assert seen["several-rank-tuples"] >= 10 and seen["flat-coordinate"] >= 40, seen
