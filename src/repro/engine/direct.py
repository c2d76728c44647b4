"""Direct ball-evaluation backend — the paper's mathematical execution model.

The output of a local algorithm at node ``v`` is, by definition, a function
of the restriction of the input to ``B(v, t)``; this engine realises that
definition literally by extracting every requested node's ball and applying
the algorithm to it.  It memoises nothing — every node of every job is
evaluated — and is the process-wide default backend, preserving the
semantics the rest of the package has always had.

Batched jobs (:meth:`DirectEngine.run_many`, the seam ``verify_decider``
and the campaign drivers submit through) take the interned path of
:mod:`repro.engine.interned`: the graph is interned into integer lists once,
its ball table is grown once per radius, and identifier views reuse the
shared ball topology across the whole assignment grid.  Each job's
assignment is checked once to cover the graph; every view then gets a
copy-free restriction of it to its ball.  Single
:meth:`~repro.engine.base.ExecutionEngine.run` and :meth:`DirectEngine.views`
calls keep the per-node BFS of the definition; it is the oracle the
interned path is tested against, with identical outputs.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..graphs.identifiers import IdAssignment
from ..graphs.labelled_graph import LabelledGraph, Node
from ..graphs.neighbourhood import Neighbourhood, extract_neighbourhood
from .base import ExecutionEngine
from .interned import interned_id_free_views

__all__ = ["DirectEngine"]


class DirectEngine(ExecutionEngine):
    """Per-node ball evaluation with no output memoisation."""

    name = "direct"

    def views(
        self,
        graph: LabelledGraph,
        radius: int,
        ids: Optional[IdAssignment] = None,
        nodes: Optional[Iterable[Node]] = None,
    ) -> Dict[Node, Neighbourhood]:
        """Extract the radius-``radius`` view of every node (or of ``nodes``) by per-node BFS."""
        chosen = list(nodes) if nodes is not None else list(graph.nodes())
        out: Dict[Node, Neighbourhood] = {}
        for v in chosen:
            self.stats.ball_extractions += 1
            out[v] = extract_neighbourhood(graph, v, radius, ids)
        return out

    # ------------------------------------------------------------------ #
    # Interned batched jobs
    # ------------------------------------------------------------------ #

    def _run_many_core(
        self,
        algorithm: "LocalAlgorithm",
        jobs: Sequence[Tuple[LabelledGraph, Optional[IdAssignment]]],
    ) -> List[Dict[Node, Hashable]]:
        """Run a deterministic algorithm over many ``(graph, ids)`` jobs.

        Each distinct graph in the job list is interned once and its id-free
        ball collection is shared by every assignment.  Per job, the
        assignment is checked once to cover every node; each view's
        identifiers are then a copy-free restriction of it to the view's
        ball, so per-job work is evaluating the algorithm.  For an
        Id-oblivious algorithm the outputs of two jobs on the same graph are
        *provably identical* (they are a pure function of the id-free
        views), so they are computed once per distinct graph and copied per
        job — batching within this one call, never state carried across
        calls.  Outputs equal the per-node path's exactly, in job order.
        """
        results: List[Dict[Node, Hashable]] = []
        oblivious = not algorithm.uses_identifiers
        table: Dict[int, Tuple[LabelledGraph, Dict[Node, Neighbourhood]]] = {}
        shared: Dict[int, Dict[Node, Hashable]] = {}
        for graph, ids in jobs:
            entry = table.get(id(graph))
            if entry is None or entry[0] is not graph:
                base = interned_id_free_views(graph, algorithm.radius)
                self.stats.ball_extractions += len(base)
                table[id(graph)] = (graph, base)
            else:
                base = entry[1]
                self.stats.ball_hits += len(base)
            if oblivious:
                outputs = shared.get(id(graph))
                if outputs is None:
                    outputs = {v: self.evaluate_view(algorithm, view) for v, view in base.items()}
                    shared[id(graph)] = outputs
                else:
                    self.stats.nodes_run += len(outputs)
                    self.stats.evaluation_hits += len(outputs)
                results.append(dict(outputs))
                continue
            use_ids = self._ids_for(algorithm, ids)
            use_ids._check_covers(base)
            results.append(
                {v: self.evaluate_view(algorithm, view._with_covering_ids(use_ids)) for v, view in base.items()}
            )
        return results
