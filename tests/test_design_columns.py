"""The columnar package model: generated designs, on-demand net objects.

``build_design`` writes every net as columns of its quadrant's
:class:`NetList` and every ball as a row of its :class:`BumpArray`.  The
golden file ``tests/data/design_digests.json`` pins, per design, a SHA-256
of the ids, names, types, tiers and bump rows that the generator produced
when it still built one ``Net`` object per net, so the columns must
reproduce those designs exactly.
"""

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import CircuitSpec, build_design, table1_circuit
from repro.errors import PackageModelError
from repro.package import NET_TYPES, BumpBall, Net, NetList, NetType

DIGESTS = json.loads((Path(__file__).parent / "data" / "design_digests.json").read_text())


def _spec(key):
    if key.startswith("synth"):
        count = int(key[len("synth"):])
        return CircuitSpec(name=key, finger_count=count)
    index, psi = key[len("circuit"):].split("_psi")
    return table1_circuit(int(index), tier_count=int(psi))


def design_digest(design) -> str:
    digest = hashlib.sha256()
    for side, quadrant in design:
        netlist, bumps = quadrant.netlist, quadrant.bumps
        payload = [
            side.value,
            netlist.ids.tolist(),
            list(netlist.names),
            [NET_TYPES[code].value for code in netlist.types.tolist()],
            netlist.tiers.tolist(),
            [bumps.row_nets(row) for row in range(1, bumps.row_count + 1)],
        ]
        digest.update(json.dumps(payload).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_generated_designs_match_the_golden_digests(key):
    assert design_digest(build_design(_spec(key), seed=0)) == DIGESTS[key]


def test_building_a_design_creates_no_net_or_ball_objects():
    def alive():
        return sum(isinstance(obj, (Net, BumpBall)) for obj in gc.get_objects())

    gc.collect()
    before = alive()
    design = build_design(CircuitSpec(name="s16k", finger_count=16_384), seed=0)
    gc.collect()
    assert design.total_net_count == 16_384
    assert alive() == before


def test_on_demand_objects_follow_the_columns():
    design = build_design(table1_circuit(2, tier_count=4), seed=0)
    for __, quadrant in design:
        netlist = quadrant.netlist
        nets = list(netlist)
        assert [net.id for net in nets] == netlist.ids.tolist()
        assert [net.name for net in nets] == list(netlist.names)
        assert [NET_TYPES.index(net.net_type) for net in nets] == netlist.types.tolist()
        assert [net.tier for net in nets] == netlist.tiers.tolist()
        assert [netlist.by_id(net.id) for net in nets] == nets
        for row in range(1, quadrant.row_count + 1):
            for col, net_id in enumerate(quadrant.row_nets(row), start=1):
                assert quadrant.bumps.ball_of(net_id) == BumpBall(net_id, col, row)


class TestFromColumns:
    def test_matches_the_object_constructor(self):
        nets = [
            Net(id=4, name="VDD4", net_type=NetType.POWER, tier=2),
            Net(id=1, name="N1"),
            Net(id=9, name="VSS9", net_type=NetType.GROUND, tier=3),
        ]
        columns = NetList.from_columns(
            [4, 1, 9], ["VDD4", "N1", "VSS9"], [1, 0, 2], [2, 1, 3]
        )
        assert list(columns) == nets == list(NetList(nets))
        assert columns.supply_ids() == [4, 9]

    @pytest.mark.parametrize(
        "columns",
        [
            ([0, 0], ["A", "B"], [0, 0], [1, 1]),
            ([0, 1], ["A", "A"], [0, 0], [1, 1]),
            ([-1], ["A"], [0], [1]),
            ([0], [""], [0], [1]),
            ([0], ["A"], [0], [0]),
            ([0], ["A"], [len(NET_TYPES)], [1]),
            ([0, 1], ["A"], [0, 0], [1, 1]),
        ],
        ids=["dup-id", "dup-name", "negative-id", "empty-name", "tier-0", "type", "length"],
    )
    def test_rejects_what_net_and_netlist_reject(self, columns):
        with pytest.raises(PackageModelError):
            NetList.from_columns(*columns)

    def test_columns_are_read_only(self):
        netlist = NetList.from_columns([0, 1], ["A", "B"], [0, 1], [1, 1])
        for column in (netlist.ids, netlist.types, netlist.tiers):
            with pytest.raises(ValueError):
                column[0] = 5
        assert isinstance(netlist.names, tuple)
        assert np.array_equal(netlist.ids, [0, 1])
