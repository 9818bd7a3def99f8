"""Nets: the signals/supplies that must be carried from pads to bump balls."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator

import numpy as np

from ..errors import PackageModelError


class NetType(enum.Enum):
    """Electrical role of a net.

    The exchange step (paper Fig. 14) treats power pads specially: in a 2-D IC
    only power pads are moved, because only they influence core IR-drop.
    ``GROUND`` nets are supply pads as well; the IR-drop analyzer can be run on
    either the VDD or the VSS network.
    """

    SIGNAL = "signal"
    POWER = "power"
    GROUND = "ground"

    @property
    def is_supply(self) -> bool:
        """True for power/ground nets — the pads that matter for IR-drop."""
        return self is not NetType.SIGNAL


@dataclass(frozen=True)
class Net:
    """A net to be assigned to one finger/pad and one bump ball.

    Attributes
    ----------
    id:
        Dense integer identifier, unique within a design.
    name:
        Human-readable name (``"N42"``, ``"VDD3"``, ...).
    net_type:
        Signal / power / ground role.
    tier:
        Die tier carrying this net's pad, ``1..psi`` (paper section 3.2).
        A 2-D IC has every net on tier 1.
    """

    id: int
    name: str
    net_type: NetType = NetType.SIGNAL
    tier: int = 1

    def __post_init__(self) -> None:
        if self.id < 0:
            raise PackageModelError(f"net id must be non-negative, got {self.id}")
        if self.tier < 1:
            raise PackageModelError(f"net tier must be >= 1, got {self.tier}")
        if not self.name:
            raise PackageModelError("net name must be non-empty")


#: A net type's code in :attr:`NetList.types` is its index here.
NET_TYPES = tuple(NetType)


class NetList:
    """An ordered collection of nets with unique ids and names.

    The nets are four parallel columns in netlist order: ``ids`` and
    ``tiers`` (int64 arrays), ``types`` (int8 codes into :data:`NET_TYPES`)
    and ``names`` (a tuple of str).  ``NetList(nets)`` takes :class:`Net`
    values; :meth:`from_columns` takes the columns themselves, so a large
    design is built without one object per net.  :meth:`by_id` and
    iteration build :class:`Net` values on demand.
    """

    def __init__(self, nets: Iterable[Net] = ()) -> None:
        nets = list(nets)
        self._set_columns(
            [net.id for net in nets],
            [net.name for net in nets],
            [NET_TYPES.index(net.net_type) for net in nets],
            [net.tier for net in nets],
        )

    @classmethod
    def from_columns(cls, ids, names, types, tiers) -> "NetList":
        """A netlist from its columns (see the class doc), validated as
        :class:`Net` validates one net."""
        netlist = cls.__new__(cls)
        netlist._set_columns(ids, names, types, tiers)
        types = netlist.types
        if len(netlist) and (
            netlist.ids.min() < 0 or netlist.tiers.min() < 1 or not all(netlist.names)
            or types.min() < 0 or types.max() >= len(NET_TYPES)
        ):
            raise PackageModelError(
                "net columns need ids >= 0, tiers >= 1, non-empty names "
                "and type codes into NET_TYPES"
            )
        return netlist

    def _set_columns(self, ids, names, types, tiers) -> None:
        self.ids, self.names = np.array(ids, np.int64), tuple(names)
        self.types, self.tiers = np.array(types, np.int8), np.array(tiers, np.int64)
        for column in (self.ids, self.types, self.tiers):
            column.flags.writeable = False
        if not len(self.ids) == len(self.names) == len(self.types) == len(self.tiers):
            raise PackageModelError("netlist columns differ in length")
        ids = np.sort(self.ids)
        if (ids[1:] == ids[:-1]).any():
            raise PackageModelError("duplicate net ids in netlist")
        if len(set(self.names)) != len(self.names):
            raise PackageModelError("duplicate net names in netlist")
        self.__dict__.pop("index_by_id", None)

    @cached_property
    def index_by_id(self) -> Dict[int, int]:
        """Netlist position (the net index of
        :class:`~repro.package.QuadrantTables`) by net id, built on first use."""
        return dict(zip(self.ids.tolist(), range(len(self.ids))))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Net]:
        types = map(NET_TYPES.__getitem__, self.types.tolist())
        return map(Net, self.ids.tolist(), self.names, types, self.tiers.tolist())

    def __contains__(self, net_id: int) -> bool:
        return net_id in self.index_by_id

    def by_id(self, net_id: int) -> Net:
        """Look up a net by id, raising :class:`PackageModelError` if absent."""
        try:
            k = self.index_by_id[net_id]
        except KeyError:
            raise PackageModelError(f"unknown net id {net_id}") from None
        net_type = NET_TYPES[self.types[k]]
        return Net(int(self.ids[k]), self.names[k], net_type, int(self.tiers[k]))

    def add(self, net: Net) -> None:
        """Append a net, enforcing id/name uniqueness."""
        if net.id in self:
            raise PackageModelError(f"duplicate net id {net.id}")
        if net.name in self.names:
            raise PackageModelError(f"duplicate net name {net.name}")
        self._set_columns(
            [*self.ids.tolist(), net.id],
            [*self.names, net.name],
            [*self.types.tolist(), NET_TYPES.index(net.net_type)],
            [*self.tiers.tolist(), net.tier],
        )

    def supply_ids(self) -> list:
        """Ids of all power/ground nets, in netlist order."""
        return self.ids[self.types != NET_TYPES.index(NetType.SIGNAL)].tolist()

    def ids_of_type(self, net_type: NetType) -> list:
        """Ids of all nets of the given type, in netlist order."""
        return self.ids[self.types == NET_TYPES.index(net_type)].tolist()
