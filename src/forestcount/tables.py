"""Count tables with provenance metadata and CSV/JSON serialization."""

from __future__ import annotations

import io
import json
from collections import namedtuple

TABLE_SCHEMA = "count-table@1"


class CountTable(namedtuple("CountTable", "values family route convention",
                            defaults=(None,))):
    """Rectangular table of exact counts, entry [c][d], plus provenance.

    values is a tuple of row tuples; family names which counting series
    the values come from (n1, n2, n3 or n4); route records how they were
    computed (solver, dp, closed-form or oracle); convention is the
    weight-convention name where relevant, else None.
    """

    __slots__ = ()

    @property
    def cmax(self) -> int:
        return len(self.values) - 1

    @property
    def dmax(self) -> int:
        return len(self.values[0]) - 1

    def value(self, c: int, d: int) -> int:
        return self.values[c][d]

    @classmethod
    def from_rows(cls, rows: list[list[int]], family: str, route: str,
                  convention: str | None = None) -> "CountTable":
        return cls(tuple(tuple(r) for r in rows), family, route, convention)

    def support_violations(self) -> list[tuple[int, int]]:
        """Cells with c >= 2d holding a nonzero value, except the degree-0
        empty configuration at (0,0)."""
        bad = []
        for c in range(self.cmax + 1):
            for d in range(self.dmax + 1):
                if c >= 2 * d and (c, d) != (0, 0) and self.values[c][d] != 0:
                    bad.append((c, d))
        return bad

    def to_csv(self) -> str:
        out = io.StringIO()
        header = ["c\\d"] + [str(d) for d in range(self.dmax + 1)]
        out.write(",".join(header) + "\n")
        for c in range(self.cmax + 1):
            out.write(",".join([str(c)] + [str(v) for v in self.values[c]]))
            out.write("\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "schema": TABLE_SCHEMA,
            "family": self.family,
            "route": self.route,
            "convention": self.convention,
            "cmax": self.cmax,
            "dmax": self.dmax,
            "values": [list(row) for row in self.values],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CountTable":
        if doc.get("schema") != TABLE_SCHEMA:
            raise ValueError(f"unexpected schema {doc.get('schema')!r}")
        return cls(tuple(tuple(row) for row in doc["values"]),
                   doc["family"], doc["route"], doc.get("convention"))
