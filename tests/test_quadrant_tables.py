"""The cached per-quadrant arrays agree with the object model they flatten."""

import numpy as np
import pytest

from repro.assign import IFAAssigner, RandomAssigner, assign_design, is_legal
from repro.fuzz.gen import FuzzCase
from repro.kernels import max_density_of_order
from repro.package import NetType, quadrant_tables
from repro.routing import density_map, total_flyline_length
from repro.routing.wirelength import total_flyline_length_of_design


def _sparse_design():
    case = FuzzCase(
        spec={"name": "sparse", "finger_count": 120, "rows_per_quadrant": 4},
        id_stride=1000,
    )
    return case.build_design()


@pytest.fixture(params=["dense", "sparse"])
def design(request, small_design):
    return small_design if request.param == "dense" else _sparse_design()


class TestQuadrantTables:
    def test_lookup_kind_follows_the_id_span(self, small_design):
        for quadrant in small_design.quadrants.values():
            tables = quadrant_tables(quadrant)
            assert tables.index_of_id is not None and tables.id_sorter is None
        for quadrant in _sparse_design().quadrants.values():
            tables = quadrant_tables(quadrant)
            assert tables.index_of_id is None and tables.id_sorter is not None
            # netlist order is not id order, so the sorter is not the identity
            assert (np.diff(tables.net_ids) < 0).all()

    def test_arrays_match_the_object_model(self, design):
        for quadrant in design.quadrants.values():
            tables = quadrant_tables(quadrant)
            netlist = list(quadrant.netlist)
            ids = [net.id for net in netlist]
            assert tables.net_ids.tolist() == ids
            assert tables.indices(ids).tolist() == list(range(len(ids)))
            for k, net in enumerate(netlist):
                ball = quadrant.bumps.ball_of(net.id)
                assert tables.rows[k] == ball.row
                assert tables.via_index[k] == ball.col - 1
            for row in range(1, quadrant.row_count + 1):
                assert tables.net_ids[tables.row_nets[row - 1]].tolist() == (
                    quadrant.row_nets(row)
                )
            for net_type in (NetType.POWER, NetType.GROUND):
                assert tables.net_ids[tables.type_nets[net_type]].tolist() == (
                    quadrant.netlist.ids_of_type(net_type)
                )
            assert tables.net_ids[tables.type_nets[None]].tolist() == (
                quadrant.supply_net_ids()
            )

    def test_net_slots_inverts_the_order(self, design):
        assignments = assign_design(RandomAssigner(), design, seed=3)
        for assignment in assignments.values():
            tables = quadrant_tables(assignment.quadrant)
            net_slot = tables.net_slots(assignment.order)
            for k, net_id in enumerate(tables.net_ids.tolist()):
                assert net_slot[k] == assignment.slot_of(net_id) - 1

    def test_measurements_match_the_object_model(self, design):
        for assigner in (IFAAssigner(), RandomAssigner()):
            assignments = assign_design(assigner, design, seed=1)
            for assignment in assignments.values():
                assert is_legal(assignment)
                assert max_density_of_order(assignment) == density_map(
                    assignment
                ).max_density
            reference = sum(total_flyline_length(a) for a in assignments.values())
            assert total_flyline_length_of_design(assignments) == pytest.approx(
                reference, rel=1e-12
            )
