"""Unstructured P2P network simulator.

A discrete-cycle simulator of the paper's experimental platform
(Section 5.1): an interest-based unstructured overlay where, each *query
cycle*, every active peer requests a resource in one of its interests from
an interest neighbour, rates the outcome (+1 authentic / -1 inauthentic),
and — at the end of each *simulation cycle* (30 query cycles) — the
attached reputation system recomputes global reputations that steer the
next cycles' server selection.
"""

from repro.p2p.dht import ChordRing
from repro.p2p.engine import BatchedQueryEngine
from repro.p2p.metrics import MetricsCollector
from repro.p2p.network import InterestOverlay
from repro.p2p.node import NodeKind, NodeSpec, Population
from repro.p2p.selection import SelectionPolicy, select_server
from repro.p2p.simulator import Simulation, SimulationConfig

__all__ = [
    "BatchedQueryEngine",
    "ChordRing",
    "MetricsCollector",
    "InterestOverlay",
    "NodeKind",
    "NodeSpec",
    "Population",
    "SelectionPolicy",
    "select_server",
    "Simulation",
    "SimulationConfig",
]
