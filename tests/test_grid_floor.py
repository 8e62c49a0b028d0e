"""The acceptance grids never fall below their committed floor.

``tests/golden/grid_floor.json`` holds ``acceptance.GRIDS`` as it was
when the floor was last raised.  A grid may be raised: an integer
bound grows, a field list gains an order, a key is added.  It may not be
lowered: every key of the floor is still there, every integer is at
least its floor, every list holds every entry of its floor, and every
string is unchanged.  A change that raises a grid raises the floor with it.
"""

import copy
import json
from pathlib import Path

import pytest

from ffzeta import acceptance

FLOOR = json.loads((Path(__file__).parent / "golden" / "grid_floor.json").read_text())


def below_floor(grids: dict, floor: dict) -> list[str]:
    """One line per way that ``grids`` falls below ``floor``."""
    lines = []
    for cid, kinds in floor.items():
        for kind, low in kinds.items():
            grid = grids.get(cid, {}).get(kind)
            if grid is None:
                lines.append(f"criterion {cid} {kind}: no grid")
                continue
            for key, want in low.items():
                where = f"criterion {cid} {kind} {key}"
                got = grid.get(key)
                if got is None:
                    lines.append(f"{where}: missing")
                elif isinstance(want, list):
                    if not isinstance(got, list) or not set(want) <= set(got):
                        lines.append(f"{where}: {got!r} does not hold {want!r}")
                elif isinstance(want, str):
                    if got != want:
                        lines.append(f"{where}: {got!r} is not {want!r}")
                elif type(got) is not int or got < want:
                    lines.append(f"{where}: {got!r} is below {want!r}")
    return lines


def test_grids_meet_the_floor():
    assert below_floor(acceptance.GRIDS, FLOOR) == []


def test_every_grid_has_a_floor():
    assert {cid: set(kinds) for cid, kinds in acceptance.GRIDS.items()} == \
        {cid: set(kinds) for cid, kinds in FLOOR.items()}


def test_every_order_is_a_built_field():
    for kinds in acceptance.GRIDS.values():
        for grid in kinds.values():
            for r in grid.get("r", []):
                assert acceptance._field_of_order(r).order == r


@pytest.mark.parametrize("lower", [
    lambda g: g["3"]["full"].update(jmax=49),
    lambda g: g["1"]["full"]["r"].remove(5),
    lambda g: g["2"]["quick"].pop("precision"),
    lambda g: g["8"]["full"].update(dmax=8.5),
    lambda g: g["10"]["quick"].update(battery="quick 1-8"),
    lambda g: g["9"].pop("quick"),
], ids=["integer", "field-list", "key", "not-integer", "string", "kind"])
def test_a_lowered_grid_is_seen(lower):
    grids = copy.deepcopy(FLOOR)
    lower(grids)
    assert len(below_floor(grids, FLOOR)) == 1
