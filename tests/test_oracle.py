import json
from itertools import permutations

import pytest

from forestcount.formulas import flat_count
from forestcount.oracle import (MAX_ORACLE_DEGREE, ChordDiagram, _matchings,
                                dump_diagrams, enumerate_flat, interleave,
                                validate_diagram)


def cross(*pairs):
    return tuple(sorted(pairs))


def test_interleave():
    assert interleave((0, 2), (1, 3))
    assert not interleave((0, 2), (3, 5))
    assert interleave((0, 6), (4, 10))
    assert not interleave((1, 7), (3, 5))


def test_degree_zero_single_empty_diagram():
    # the general loop builds it from the one empty matching of each parity
    diagrams = enumerate_flat(0)
    assert diagrams == [ChordDiagram(0, (), (), ())]
    ok, violations = validate_diagram(diagrams[0])
    assert ok, violations


def test_degree_one_forced_cross():
    diagrams = enumerate_flat(1)
    assert len(diagrams) == 1
    diagram = diagrams[0]
    assert diagram.odd_chords == ((0, 2),)
    assert diagram.even_chords == ((1, 3),)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_counts_match_closed_form(d):
    diagrams = enumerate_flat(d)
    assert len(diagrams) == flat_count(d)


@pytest.mark.slow
def test_degree_four_count():
    assert len(enumerate_flat(4)) == flat_count(4) == 140


def search_every_pairing(d):
    """The generator as first written: every pair of chord matchings with
    every one of the d! bijections from odd to even chords, kept when its
    designated pairs are exactly the interleaving ones."""
    points = range(4 * d)
    odd_options = _matchings(tuple(p for p in points if p % 2 == 0), True, [])
    even_options = _matchings(tuple(p for p in points if p % 2 == 1),
                              False, [])
    found = []
    for odd_chords in odd_options:
        for even_chords in even_options:
            for assignment in permutations(range(d)):
                pairing = {(odd_chords[i], even_chords[assignment[i]])
                           for i in range(d)}
                if all(((o, e) in pairing) == interleave(o, e)
                       for o in odd_chords for e in even_chords):
                    found.append(ChordDiagram(
                        d, tuple(sorted(odd_chords)),
                        tuple(sorted(even_chords)), tuple(sorted(pairing))))
    return found


def test_generator_equals_the_search_over_every_pairing():
    for d in range(4):
        assert enumerate_flat(d) == search_every_pairing(d), d


@pytest.mark.slow
def test_generator_equals_the_search_over_every_pairing_at_degree_four():
    assert enumerate_flat(4) == search_every_pairing(4)


def test_generated_diagrams_all_validate():
    for d in range(4):
        for diagram in enumerate_flat(d):
            ok, violations = validate_diagram(diagram)
            assert ok, (diagram, violations)


def test_generated_diagrams_duplicate_free():
    for d in range(4):
        diagrams = enumerate_flat(d)
        assert len(set(diagrams)) == len(diagrams)


def test_degree_guard():
    with pytest.raises(ValueError):
        enumerate_flat(MAX_ORACLE_DEGREE + 1)
    with pytest.raises(ValueError):
        enumerate_flat(-1)


# ----------------------------------------------------------------------
# hand-built corpus for the validator
# ----------------------------------------------------------------------

def test_two_cross_diagram_valid():
    # the standard two-cross picture on eight boundary points:
    # one cross on chords {2,4} x {3,5}, the other on {0,6} x {1,7}
    diagram = ChordDiagram(
        degree=2,
        odd_chords=((0, 6), (2, 4)),
        even_chords=((1, 7), (3, 5)),
        crossings=cross(((2, 4), (3, 5)), ((0, 6), (1, 7))),
    )
    ok, violations = validate_diagram(diagram)
    assert ok, violations


def test_undesignated_same_parity_interleaving_rejected():
    # odd chords {0,6} and {4,10} interleave: same-parity contact is banned
    diagram = ChordDiagram(
        degree=3,
        odd_chords=((0, 6), (2, 8), (4, 10)),
        even_chords=((1, 3), (5, 7), (9, 11)),
        crossings=cross(((0, 6), (1, 3)), ((2, 8), (5, 7)),
                        ((4, 10), (9, 11))),
    )
    ok, violations = validate_diagram(diagram)
    assert not ok
    assert any("same parity" in v for v in violations)


def test_undesignated_opposite_parity_interleaving_rejected():
    # chords cross geometrically but the pairing designates nothing
    diagram = ChordDiagram(
        degree=1,
        odd_chords=((0, 2),),
        even_chords=((1, 3),),
        crossings=(),
    )
    ok, violations = validate_diagram(diagram)
    assert not ok
    assert any("undesignated interleaving" in v for v in violations)
    assert any("perfect" in v for v in violations)


def test_designated_noncrossing_pair_rejected():
    # designated pair fails to interleave
    diagram = ChordDiagram(
        degree=2,
        odd_chords=((0, 2), (4, 6)),
        even_chords=((1, 3), (5, 7)),
        crossings=cross(((0, 2), (5, 7)), ((4, 6), (1, 3))),
    )
    ok, violations = validate_diagram(diagram)
    assert not ok
    assert any("does not interleave" in v for v in violations)


def test_point_reuse_rejected():
    diagram = ChordDiagram(
        degree=1,
        odd_chords=((0, 0),),
        even_chords=((1, 3),),
        crossings=cross(((0, 0), (1, 3))),
    )
    ok, violations = validate_diagram(diagram)
    assert not ok
    assert any("exactly once" in v for v in violations)


def test_parity_illegal_chord_rejected():
    # {0,4} has both endpoints congruent to 0 mod 4
    diagram = ChordDiagram(
        degree=2,
        odd_chords=((0, 4), (2, 6)),
        even_chords=((1, 5), (3, 7)),
        crossings=cross(((0, 4), (1, 5)), ((2, 6), (3, 7))),
    )
    ok, violations = validate_diagram(diagram)
    assert not ok
    assert any("mod 4" in v for v in violations)


def test_empty_diagram_valid():
    ok, violations = validate_diagram(ChordDiagram(0, (), (), ()))
    assert ok, violations


def test_json_dump_round_trip():
    diagrams = enumerate_flat(2)
    doc = json.loads(dump_diagrams(diagrams))
    assert len(doc) == 4
    rebuilt = [
        ChordDiagram(
            entry["degree"],
            tuple(tuple(ch) for ch in entry["odd_chords"]),
            tuple(tuple(ch) for ch in entry["even_chords"]),
            tuple((tuple(a), tuple(b)) for a, b in entry["crossings"]),
        )
        for entry in doc
    ]
    assert rebuilt == diagrams
