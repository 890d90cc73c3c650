"""The package namespace: what genpos exports, what importing it loads, and
the result records it hands out."""

import json
import os
import subprocess
import sys

import pytest

import genpos
from genpos.complexes import QStarResult
from genpos.geometry import PointMultiset
from genpos.homology import BettiProfile
from genpos.solver import (
    BoundTable,
    ConditionReport,
    PointFamily,
    SgprResult,
    SubsetCheck,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_all_has_no_duplicates():
    assert len(genpos.__all__) == len(set(genpos.__all__))


def test_all_names_resolve():
    for name in genpos.__all__:
        assert hasattr(genpos, name), name


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import genpos.cli
added = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
records = sorted("%s.%s" % (module.__name__, name)
                 for module in list(sys.modules.values())
                 if module.__name__.split(".")[0] == "genpos"
                 for name, value in vars(module).items()
                 if isinstance(value, type) and hasattr(value, "__dataclass_fields__"))
print(json.dumps({"added": added, "records": records}))
"""


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter that writes no .pyc, as a first run would
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"added": [], "records": []}


def _records():
    check = SubsetCheck(indices=(0,), gp_number=1, required=1, ok=True)
    return [
        BoundTable(ds=(1,), ks=(1,), rows=()),
        ConditionReport(holds=True, mode="all-subsets", checks=(check,), first_violation=None),
        SgprResult(status="not_found"),
        QStarResult(holds=True, q=1),
        BettiProfile(up_to=0, betti=(0,), euler_partial=0, f_vector=(1, 1)),
        check,
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_record_field_cannot_be_assigned(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    assert getattr(record, first) is not None


def test_records_are_named_tuples():
    assert SgprResult(status="not_found").representatives is None
    assert SgprResult(status="not_found").violation is None
    assert QStarResult(holds=True, q=1).violating is None
    assert not QStarResult(holds=False, q=1)
    profile = BettiProfile(up_to=1, betti=(0, 1), euler_partial=0, f_vector=(1, 3, 3))
    assert profile == (1, (0, 1), 0, (1, 3, 3))
    up_to, betti, _, _ = profile
    assert (up_to, betti) == (1, (0, 1))
    assert profile._replace(up_to=0) == BettiProfile(0, (0, 1), 0, (1, 3, 3))


def test_point_family_repr_and_budget():
    family = PointFamily(d=2, sets=[[[0, 0], [1, 2]], [[3, 4]]], node_budget=7)
    assert repr(family) == ("PointFamily(d=2, sets=(PointMultiset(d=2, [Point(0, 0), "
                            "Point(1, 2)]), PointMultiset(d=2, [Point(3, 4)])))")
    assert family.node_budget == 7
    assert PointFamily(2, family.sets).node_budget is None
    assert family != PointFamily(d=2, sets=family.sets)  # compared by identity
    with pytest.raises(ValueError, match="at least one set"):
        PointFamily(d=2, sets=[])
    with pytest.raises(ValueError, match="set dimension 1 != family dimension 2"):
        PointFamily(d=2, sets=[family.sets[0], PointMultiset([[5]])])
