"""Synchronous message-passing backend — the "networked state machines" model.

This engine produces views by actually running the full-information
synchronous protocol of Section 1.2 (via
:class:`~repro.local_model.simulator.SynchronousSimulator`) and letting each
node reconstruct its ball from the knowledge it accumulated, rather than by
reading the graph globally.  It is the operational cross-check of the
direct engine: the equivalence test-suite asserts that both (and the cached
backend) produce identical outputs on the same inputs.

Communication statistics of the most recent run are kept on
:attr:`SynchronousEngine.last_simulation_stats` so benchmarks can continue
to report the message cost of local decision.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood
from ..local_model.simulator import SimulationStats, SynchronousSimulator
from ..obs.metrics import MESSAGES_SENT
from .base import ExecutionEngine

__all__ = ["SynchronousEngine"]


class SynchronousEngine(ExecutionEngine):
    """Views reconstructed from ``radius + extra_rounds`` rounds of full-information gossip.

    Parameters
    ----------
    extra_rounds:
        Rounds run beyond the algorithm's horizon; the default ``1`` covers
        the edge facts on the ball boundary, matching the paper's
        "t ± 1 rounds" equivalence between horizons and round counts.
    """

    name = "synchronous"

    def __init__(self, extra_rounds: int = 1) -> None:
        super().__init__()
        self.extra_rounds = extra_rounds
        self.last_simulation_stats: Optional[SimulationStats] = None

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Gather views by running the message-passing simulator for ``radius`` rounds."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        sim = SynchronousSimulator(graph, ids)
        sim.run_rounds(radius + self.extra_rounds)
        self.last_simulation_stats = sim.stats
        self.stats.inc(MESSAGES_SENT, sim.stats.messages_sent)
        out: Dict[Node, Neighbourhood] = {}
        for v in chosen:
            self.stats.ball_extractions += 1
            out[v] = sim.local_view(v, radius)
        return out
