"""Every public entry that takes a set of variables refuses a bad member.

A variable index is a plain int in 1..d; `varset_mask(varset, ambient)` is the
one check of that rule.  Each entry below is called with {3, 4, v}, which is
a valid set of variables of the Singh-Walther ring (d = 4) once the member v
is dropped, and must raise `InvalidInputError`: never another exception and
never a result.  The bad members are 0, d + 1, a bool, a float and a string.

`localization_piece` takes its variables as a bitmask, whose out-of-range
analogues are -1 and the bit 1 << d of variable d + 1, and a degree, whose
coordinates are any ints; `DegreeBox` bounds are any ints too.  So those two
get the non-int values only where an int is valid.
"""
from __future__ import annotations

import pytest

from topann.annihilator import localization_kernel, symbolic_power
from topann.cech import DegreeBox, localization_piece
from topann.cohomdim import cd_on_prime, grade_on_prime
from topann.errors import InvalidInputError
from topann.linalg import FieldSpec
from topann.lynch import build_instance
from topann.monomial import prime_intersection, variable_ideal
from topann.stanley_reisner import QuotientIdeal, QuotientRing

D = 4
Q = FieldSpec.parse("Q")
SW = build_instance(D, {1}, {2}, {3, 4}, {1}, {2})
RING: QuotientRing = SW.ring
A: QuotientIdeal = SW.ideal

VARSET_ENTRIES = {
    "prime_intersection": lambda s: prime_intersection([{1}, s], D),
    "variable_ideal": lambda s: variable_ideal(s, D),
    "require_support": lambda s: RING.require_support(s),
    "localization_kernel": lambda s: localization_kernel(s, RING),
    "symbolic_power": lambda s: symbolic_power(s, 2, RING),
    "cd_on_prime": lambda s: cd_on_prime(A, s, Q),
    "grade_on_prime": lambda s: grade_on_prime(A, s),
    "build_instance": lambda s: build_instance(D, {1}, {2}, s, {1}, {2}),
}
BAD_INDICES = (0, D + 1, True, 1.0, "1")
BAD_MASKS = (-1, 1 << D, True, 1.0, "1")
BAD_INTS = (True, False, -1.0, 1.0, "1", None)

CASES = [
    pytest.param(lambda v, f=f: f({3, 4, v}), v, id=f"{name}-{v!r}")
    for name, f in VARSET_ENTRIES.items() for v in BAD_INDICES
] + [
    pytest.param(lambda v: localization_piece(RING.relations, v, (0,) * D), v,
                 id=f"localization_piece-w-{v!r}")
    for v in BAD_MASKS
] + [
    pytest.param(lambda v: localization_piece(RING.relations, 0, (v,) + (0,) * (D - 1)), v,
                 id=f"localization_piece-deg-{v!r}")
    for v in BAD_INTS
] + [
    pytest.param(lambda v: DegreeBox((v,) * D, (1,) * D), v, id=f"DegreeBox-lower-{v!r}")
    for v in BAD_INTS
] + [
    pytest.param(lambda v: DegreeBox((-1,) * D, (v,) * D), v, id=f"DegreeBox-upper-{v!r}")
    for v in BAD_INTS
]


@pytest.mark.parametrize("call, v", CASES)
def test_a_bad_variable_or_bound_is_invalid_input(call, v):
    with pytest.raises(InvalidInputError):
        call(v)


@pytest.mark.parametrize("name", VARSET_ENTRIES)
def test_the_same_calls_accept_any_iterable_of_valid_indices(name):
    # the refusals above are of the member v alone
    f = VARSET_ENTRIES[name]
    assert f({3, 4}) == f(iter([4, 3])) == f([3, 4, 4])
