"""The report writer reproduces json.dumps(sort_keys=True, indent=2) byte for byte."""
from __future__ import annotations

import json
import random

import pytest

from topann.cli import _dump

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
