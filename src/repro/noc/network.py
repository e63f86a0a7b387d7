"""Event-driven NoC: arbitration, forwarding and latency accounting.

Each *directed link* is a single-capacity resource; a packet holds a link
for ``router_latency + flit_count`` cycles (store-and-forward of the whole
packet at one flit per cycle after the router's pipeline delay).  Packets
queue FIFO at contended links -- exactly the "scheduling left to the
routers" behaviour the Legacy baseline exhibits (Sec. V): no notion of
deadlines, so an urgent packet waits behind bulk traffic.

The model is wormhole-coarse (whole-packet granularity) rather than
flit-interleaved; for the latency phenomena the paper's evaluation relies
on (queueing growth with load, hop-count dependence) this is the standard
fidelity/performance trade-off, and :mod:`repro.noc.latency` calibrates
the closed-form model against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.noc.packet import Packet
from repro.noc.routing import route_links
from repro.noc.topology import Coordinate, MeshTopology
from repro.sim.engine import Simulator, Timeout
from repro.sim.resource import Resource

#: Cycles a router needs to process a header before forwarding.
DEFAULT_ROUTER_LATENCY = 3


@dataclass
class PacketRecord:
    """Per-delivered-packet accounting."""

    packet: Packet
    hops: int
    queueing_cycles: float
    transfer_cycles: float

    @property
    def total_latency(self) -> float:
        latency = self.packet.latency
        return latency if latency is not None else 0.0


@dataclass
class DropRecord:
    """One packet lost to a fault (filtered at injection or mid-route)."""

    packet: Packet
    time: float
    reason: str
    #: Link the packet died on; None when filtered at injection.
    link: Optional[Tuple[Coordinate, Coordinate]] = None


class NocNetwork:
    """Mesh network executing packet traversals as simulator processes."""

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[MeshTopology] = None,
        router_latency: int = DEFAULT_ROUTER_LATENCY,
    ):
        if router_latency < 0:
            raise ValueError(f"router latency must be >= 0, got {router_latency}")
        self.sim = sim
        self.topology = topology or MeshTopology()
        self.router_latency = router_latency
        self._links: Dict[Tuple[Coordinate, Coordinate], Resource] = {}
        for link in self.topology.links():
            self._links[link] = Resource(
                sim, capacity=1, name=f"link{link[0]}->{link[1]}"
            )
        self.delivered: List[PacketRecord] = []
        self.dropped: List[DropRecord] = []
        self.in_flight = 0
        self.total_injected = 0
        self.total_dropped = 0
        self._failed_links: set = set()
        #: Fault-layer hook: packets for which this predicate returns
        #: True are discarded at injection (corrupted-header model).
        #: Must be a *deterministic* function of the packet for replay.
        self.drop_rule: Optional[Callable[[Packet], bool]] = None

    def link_resource(self, link: Tuple[Coordinate, Coordinate]) -> Resource:
        return self._links[link]

    # -- fault hooks -----------------------------------------------------------

    def fail_link(self, link: Tuple[Coordinate, Coordinate]) -> None:
        """Take a directed link down; packets routed over it are dropped."""
        if link not in self._links:
            raise ValueError(f"no such link {link[0]}->{link[1]} in the mesh")
        self._failed_links.add(link)

    def restore_link(self, link: Tuple[Coordinate, Coordinate]) -> None:
        """Bring a failed link back; in-flight routes re-check per hop."""
        self._failed_links.discard(link)

    def link_failed(self, link: Tuple[Coordinate, Coordinate]) -> bool:
        return link in self._failed_links

    def _drop(
        self,
        packet: Packet,
        reason: str,
        link: Optional[Tuple[Coordinate, Coordinate]],
        on_dropped: Optional[Callable[[Packet], None]],
    ) -> None:
        self.total_dropped += 1
        self.dropped.append(
            DropRecord(packet=packet, time=self.sim.now, reason=reason, link=link)
        )
        if on_dropped is not None:
            on_dropped(packet)

    def inject(
        self,
        packet: Packet,
        on_delivered: Optional[Callable[[Packet], None]] = None,
        on_dropped: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        """Start a packet traversal at the current simulation time.

        Packets matching :attr:`drop_rule` are discarded immediately;
        packets that reach a failed link are discarded mid-route.  Both
        are counted in :attr:`dropped` (and reported via ``on_dropped``)
        rather than silently lost.
        """
        if not self.topology.contains(packet.source) or not self.topology.contains(
            packet.destination
        ):
            raise ValueError(
                f"packet endpoints {packet.source}->{packet.destination} "
                "must lie in the mesh"
            )
        packet.injected_at = self.sim.now
        self.total_injected += 1
        if self.drop_rule is not None and self.drop_rule(packet):
            self._drop(packet, "drop-rule", None, on_dropped)
            return
        self.in_flight += 1
        self.sim.process(
            self._traverse(packet, on_delivered, on_dropped),
            name=f"packet{packet.packet_id}",
        )

    def _traverse(
        self,
        packet: Packet,
        on_delivered: Optional[Callable[[Packet], None]],
        on_dropped: Optional[Callable[[Packet], None]] = None,
    ):
        links = route_links(self.topology, packet.source, packet.destination)
        queueing = 0.0
        transfer = 0.0
        hold_cycles = self.router_latency + packet.flit_count
        for link in links:
            if link in self._failed_links:
                self.in_flight -= 1
                self._drop(packet, "link-down", link, on_dropped)
                return
            resource = self._links[link]
            wait_start = self.sim.now
            yield from resource.acquire()
            queueing += self.sim.now - wait_start
            if link in self._failed_links:
                # The link died while the packet queued for it.
                resource.release()
                self.in_flight -= 1
                self._drop(packet, "link-down", link, on_dropped)
                return
            yield Timeout(hold_cycles)
            transfer += hold_cycles
            resource.release()
        packet.delivered_at = self.sim.now
        self.in_flight -= 1
        self.delivered.append(
            PacketRecord(
                packet=packet,
                hops=len(links),
                queueing_cycles=queueing,
                transfer_cycles=transfer,
            )
        )
        if on_delivered is not None:
            on_delivered(packet)

    # -- statistics ------------------------------------------------------------

    def mean_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(record.total_latency for record in self.delivered) / len(
            self.delivered
        )

    def max_latency(self) -> float:
        if not self.delivered:
            return 0.0
        return max(record.total_latency for record in self.delivered)

    def mean_queueing(self) -> float:
        if not self.delivered:
            return 0.0
        return sum(record.queueing_cycles for record in self.delivered) / len(
            self.delivered
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NocNetwork({self.topology.width}x{self.topology.height}, "
            f"delivered={len(self.delivered)}, in_flight={self.in_flight})"
        )
