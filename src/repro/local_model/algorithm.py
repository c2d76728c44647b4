"""Local algorithms: the LOCAL model, Id-oblivious, order-invariant and randomised variants.

Section 1.2 of the paper specifies a local algorithm as *any* function ``A``
that maps the restriction ``(G, x, Id) | B(v, t)`` of the input to a local
output, for a constant local horizon ``t``.  Three points of that definition
drive the class design here:

* A local algorithm is a *function of the view* — so the base class exposes a
  single abstract method :meth:`LocalAlgorithm.evaluate` taking a
  :class:`~repro.graphs.neighbourhood.Neighbourhood`.
* The **Id-oblivious** restriction demands ``A(G, x, Id, v) = A(G, x, Id', v)``
  for *all* identifier assignments — :class:`IdObliviousAlgorithm` therefore
  receives a view with the identifiers stripped, so obliviousness holds by
  construction rather than by convention.  (The runners can also
  *empirically audit* an allegedly oblivious algorithm that insists on
  seeing identifiers; see :func:`repro.decision.model_checks.audit_id_obliviousness`.)
* Model assumption **(C)** requires the algorithm to be a computable function
  of an encoding of the view.  Every concrete Python implementation is, of
  course, computable; the :attr:`LocalAlgorithm.computable` flag exists so
  that *declared-uncomputable* algorithms (model ``(¬C)``, e.g. an algorithm
  consulting an oracle table for an uncomputable bound function) can be
  marked as such and excluded from (C)-only experiments.

The module also provides adapters for building algorithms from plain
functions, which keeps the separation constructions readable.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Hashable, Optional

from ..errors import AlgorithmError, IdentifierError
from ..graphs.neighbourhood import Neighbourhood
from .outputs import YES, Verdict

__all__ = [
    "LocalAlgorithm",
    "IdObliviousAlgorithm",
    "OrderInvariantAlgorithm",
    "RandomisedLocalAlgorithm",
    "FunctionAlgorithm",
    "FunctionIdObliviousAlgorithm",
    "FunctionRandomisedAlgorithm",
    "constant_algorithm",
]


class LocalAlgorithm(ABC):
    """A deterministic local algorithm in the full LOCAL model.

    Subclasses implement :meth:`evaluate`, which receives the radius-``t``
    view of a node (including identifiers) and returns the node's local
    output — a :class:`~repro.local_model.outputs.Verdict` for decision
    algorithms, or any hashable value for construction tasks.

    Attributes
    ----------
    radius:
        The local horizon ``t``.  The runner extracts exactly this ball.
    name:
        Human-readable name used in reports.
    computable:
        ``True`` (default) when the algorithm is a computable function of
        the view — model assumption ``(C)``.  Set to ``False`` for
        algorithms that model ``(¬C)`` oracles.
    """

    #: Local horizon ``t`` (subclasses may override as class attribute or set in __init__).
    radius: int = 1
    #: Whether the algorithm is computable — model assumption (C).
    computable: bool = True

    def __init__(self, radius: Optional[int] = None, name: Optional[str] = None) -> None:
        if radius is not None:
            if radius < 0:
                raise AlgorithmError(f"local horizon must be non-negative, got {radius}")
            self.radius = radius
        self.name = name or type(self).__name__

    @property
    def uses_identifiers(self) -> bool:
        """Whether the algorithm's view includes identifiers (``True`` in the full LOCAL model)."""
        return True

    @abstractmethod
    def evaluate(self, view: Neighbourhood) -> Hashable:
        """Return the local output for the node at the centre of ``view``."""

    def __call__(self, view: Neighbourhood) -> Hashable:
        return self.evaluate(view)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, radius={self.radius})"


class IdObliviousAlgorithm(LocalAlgorithm):
    """A local algorithm whose output may not depend on the identifier assignment.

    The runner strips identifiers from the view before calling
    :meth:`evaluate`; an implementation that tries to read them gets an
    :class:`~repro.errors.IdentifierError`, so Id-obliviousness is enforced
    structurally.
    """

    @property
    def uses_identifiers(self) -> bool:
        return False

    @abstractmethod
    def evaluate(self, view: Neighbourhood) -> Hashable:
        """Return the local output; ``view`` carries no identifier information."""


class OrderInvariantAlgorithm(LocalAlgorithm):
    """An algorithm in the OI model: output may depend only on the *relative order* of identifiers.

    The related-work discussion (Naor–Stockmeyer) compares LOCAL against the
    order-invariant model.  The runner passes the full view (with
    identifiers); invariance under order-preserving renamings is a semantic
    contract which :func:`repro.decision.model_checks.audit_order_invariance`
    can check empirically on finite identifier pools.
    """

    @abstractmethod
    def evaluate(self, view: Neighbourhood) -> Hashable:
        """Return the local output; only the relative order of visible identifiers may matter."""


class RandomisedLocalAlgorithm(ABC):
    """A randomised local algorithm (Section 3.3).

    Every node has access to its own unbounded string of random bits,
    modelled as a per-node :class:`random.Random` generator handed to
    :meth:`evaluate`.  Randomised algorithms in this library are Id-oblivious
    unless stated otherwise (that is the setting of Corollary 1); algorithms
    that want identifiers can read them from the view when present.
    """

    radius: int = 1
    computable: bool = True

    def __init__(self, radius: Optional[int] = None, name: Optional[str] = None) -> None:
        if radius is not None:
            if radius < 0:
                raise AlgorithmError(f"local horizon must be non-negative, got {radius}")
            self.radius = radius
        self.name = name or type(self).__name__

    @property
    def uses_identifiers(self) -> bool:
        """Randomised deciders in this library default to the Id-oblivious setting."""
        return False

    @abstractmethod
    def evaluate(self, view: Neighbourhood, rng: random.Random) -> Hashable:
        """Return the local output for the node at the centre of ``view`` using random bits from ``rng``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, radius={self.radius})"


# ---------------------------------------------------------------------- #
# Function adapters
# ---------------------------------------------------------------------- #


class FunctionAlgorithm(LocalAlgorithm):
    """Wrap a plain ``view -> output`` function as a full-LOCAL algorithm."""

    def __init__(self, fn: Callable[[Neighbourhood], Hashable], radius: int, name: Optional[str] = None) -> None:
        super().__init__(radius=radius, name=name or getattr(fn, "__name__", "function"))
        self._fn = fn

    def evaluate(self, view: Neighbourhood) -> Hashable:
        return self._fn(view)


class FunctionIdObliviousAlgorithm(IdObliviousAlgorithm):
    """Wrap a plain ``view -> output`` function as an Id-oblivious algorithm."""

    def __init__(self, fn: Callable[[Neighbourhood], Hashable], radius: int, name: Optional[str] = None) -> None:
        super().__init__(radius=radius, name=name or getattr(fn, "__name__", "function"))
        self._fn = fn

    def evaluate(self, view: Neighbourhood) -> Hashable:
        return self._fn(view)


class FunctionRandomisedAlgorithm(RandomisedLocalAlgorithm):
    """Wrap a plain ``(view, rng) -> output`` function as a randomised local algorithm."""

    def __init__(
        self,
        fn: Callable[[Neighbourhood, random.Random], Hashable],
        radius: int,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(radius=radius, name=name or getattr(fn, "__name__", "function"))
        self._fn = fn

    def evaluate(self, view: Neighbourhood, rng: random.Random) -> Hashable:
        return self._fn(view, rng)


def constant_algorithm(output: Verdict = YES, radius: int = 0, oblivious: bool = True) -> LocalAlgorithm:
    """Return the algorithm that outputs ``output`` at every node.

    The constant-``yes`` algorithm decides the trivial property containing
    all labelled graphs; it is used as a baseline and in tests.
    """
    if oblivious:
        return FunctionIdObliviousAlgorithm(lambda view: output, radius=radius, name=f"const-{output}")
    return FunctionAlgorithm(lambda view: output, radius=radius, name=f"const-{output}")
