"""The library's argument checks: each raises its own exception type with
its own message, before any work is done."""

import pytest

from wreathact import (
    Code,
    DegreeMismatchError,
    GenGroup,
    Permutation,
    WreathContext,
    WreathElement,
    WreathSubgroup,
    conjugate_subgroup,
    hamming_distance,
    is_automorphism,
)

CTX22, CTX32 = WreathContext(2, 2), WreathContext(3, 2)
ID2, ID3 = Permutation.identity(2), Permutation.identity(3)
E22 = WreathElement((ID2, ID2), ID2)
E32 = WreathElement((ID3, ID3), ID2)


def code22() -> Code:
    return Code(CTX22, [(0, 0), (1, 1)])


def subgroup22() -> WreathSubgroup:
    return WreathSubgroup(CTX22, (E22,))


CASES = {
    "hamming-distance-lengths": (
        lambda: hamming_distance((0, 1), (0, 1, 2)),
        ValueError, "words of different lengths",
    ),
    "empty-code": (
        lambda: Code(CTX22, []),
        ValueError, "a code must contain at least one word",
    ),
    "transform-context": (
        lambda: code22().transform(E32),
        DegreeMismatchError, "element lives in a different context",
    ),
    "automorphism-context": (
        lambda: is_automorphism(E32, code22()),
        DegreeMismatchError, "element lives in a different context",
    ),
    "subgroup-generator-context": (
        lambda: WreathSubgroup(CTX22, (E32,)),
        DegreeMismatchError,
        "generator context WreathContext(q=3, m=2) != subgroup context WreathContext(q=2, m=2)",
    ),
    "stabilizer-coordinate-range": (
        lambda: subgroup22().partition_stabilizer_gens(2),
        ValueError, "coordinate 2 out of range",
    ),
    "component-coordinate-range": (
        lambda: subgroup22().component(-1),
        ValueError, "coordinate -1 out of range",
    ),
    "conjugate-context": (
        lambda: conjugate_subgroup(subgroup22(), E32),
        DegreeMismatchError, "conjugating element lives in a different context",
    ),
    "group-degree-zero": (
        lambda: GenGroup(0, ()),
        ValueError, "degree must be at least 1",
    ),
    "group-generator-degree": (
        lambda: GenGroup(3, (ID2,)),
        DegreeMismatchError, "generator degree 2 != group degree 3",
    ),
    "element-without-coordinates": (
        lambda: WreathElement((), ID2),
        ValueError, "base must have at least one coordinate",
    ),
    # Python's negative indexing would read -1 as entry 2
    "apply-negative-entry": (
        lambda: WreathElement([Permutation([1, 2, 0])] * 2, Permutation([1, 0])).apply((-1, 0)),
        ValueError, "point entry -1 out of range 0..2",
    ),
    "apply-entry-out-of-range": (
        lambda: WreathElement([Permutation([1, 2, 0])] * 2, Permutation([1, 0])).apply((0, 3)),
        ValueError, "point entry 3 out of range 0..2",
    ),
    # a float index and a string under min used to raise bare TypeErrors
    "apply-float-entry": (
        lambda: WreathElement([Permutation([1, 2, 0])] * 2, Permutation([1, 0])).apply((0.0, 1)),
        ValueError, "point entry 0.0 is not an integer",
    ),
    "apply-float-entry-out-of-range": (
        lambda: WreathElement([Permutation([1, 2, 0])] * 2, Permutation([1, 0])).apply((3.0, 0)),
        ValueError, "point entry 3.0 is not an integer",
    ),
    "apply-string-entry": (
        lambda: WreathElement([Permutation([1, 2, 0])] * 2, Permutation([1, 0])).apply(("a", 0)),
        ValueError, "point entry 'a' is not an integer",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_raises_its_type_and_message(name):
    call, kind, message = CASES[name]
    with pytest.raises(ValueError) as raised:
        call()
    assert type(raised.value) is kind
    assert str(raised.value) == message
