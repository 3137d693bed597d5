"""What importing forestcount costs: the modules it loads, and the record
classes that stand in for dataclasses so that it loads few."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forestcount.oracle import ChordDiagram
from forestcount.solver import ODD, CodimWeight, SystemSolution, solve_system
from forestcount.tables import CountTable
from forestcount.verify import ZPolynomial

SRC = Path(__file__).resolve().parents[1] / "src"

# stdlib modules that counting never uses; dataclasses alone pulls in
# inspect, ast and dis.  pickle and signal are loaded only when the CLI
# forks a worker, never on import.
UNUSED = ("dataclasses", "typing", "inspect", "ast", "dis", "fractions",
          "decimal", "pickle", "multiprocessing", "signal")


def loaded_after(code: str) -> set[str]:
    """The names in sys.modules after running code in a fresh interpreter
    without the site module, on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = code + "\nimport sys\nprint(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          check=True, capture_output=True, text=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("code, module", [
    ("import forestcount.cli\nforestcount.cli.build_parser()",
     "forestcount.cli"),
    ("import forestcount", "forestcount.verify"),
], ids=["cli", "package"])
def test_import_loads_no_unused_stdlib_module(code, module):
    loaded = loaded_after(code)
    assert module in loaded
    assert sorted(loaded.intersection(UNUSED)) == []


def test_codim_weight_compares_and_hashes_by_name():
    twin = CodimWeight("odd", lambda k: 7)
    assert twin == ODD and hash(twin) == hash(ODD)
    assert CodimWeight("other", ODD.weight) != ODD
    assert len({ODD, twin, CodimWeight("linear", ODD.weight)}) == 2
    assert ODD != ("odd", ODD.weight)


def test_records_are_immutable():
    sol = solve_system("odd", 2, 2)
    records = [
        (ODD, ("name", "weight")),
        (sol, SystemSolution._fields),
        (CountTable.from_rows([[1, 2]], "n1", "dp"), CountTable._fields),
        (ChordDiagram(0, (), (), ()), ChordDiagram._fields),
        (ZPolynomial.from_terms([(0, 0, 1, 1)]), ("terms",)),
    ]
    for record, fields in records:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = None
        assert copy.deepcopy(record) == record
    assert CountTable(((1,),), "n1", "dp").convention is None


def test_zpolynomial_arithmetic_is_its_own():
    z = ZPolynomial.from_terms([(0, 0, 1, 1)])
    one = ZPolynomial.from_terms([(0, 0, 0, 1)])
    assert (z + one) * (z + one) == ZPolynomial.from_terms(
        [(0, 0, 2, 1), (0, 0, 1, 2), (0, 0, 0, 1)])
    with pytest.raises(TypeError):
        2 * z                               # no tuple repetition
    assert z != z.terms and hash(z) == hash(ZPolynomial(z.terms))
