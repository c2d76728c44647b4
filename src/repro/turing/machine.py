"""Single-tape Turing machines.

Section 3 of the paper builds its separation witness out of Turing machine
*executions*: the property ``P = {G(M, r) : M outputs 0}`` asks whether a
machine halts with output 0 when started on a blank tape, and the
construction embeds the machine's execution table into the input graph.

The machine model used here:

* one right-infinite tape (cells ``0, 1, 2, ...``), blank symbol ``BLANK``;
* deterministic transition function
  ``(state, symbol) -> (new_state, written_symbol, move)`` with moves
  ``LEFT``/``RIGHT``/``STAY``; moving left at cell 0 stays put (the standard
  convention, and the one that keeps execution tables on a quarter-plane
  grid as in the paper's Figure 2);
* a single ``halt_state``; the machine's *output* is the symbol under the
  head when it halts.  The separation property cares about whether that
  output equals ``"0"``; the classic computably-inseparable languages are
  ``L0 = {M : M outputs 0}`` and ``L1 = {M : M outputs 1}``.

Machines are immutable and hashable, and they carry a compact
:meth:`TuringMachine.encode` string so they can be embedded in node labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import TuringMachineError

__all__ = ["Move", "BLANK", "Transition", "TuringMachine", "Configuration", "RunResult"]

#: The blank tape symbol.
BLANK = "_"

#: Cache of decoded machines keyed by their canonical encoding (see TuringMachine.decode).
_DECODE_CACHE: Dict[str, "TuringMachine"] = {}


class Move(str, Enum):
    """Head movement of a transition."""

    LEFT = "L"
    RIGHT = "R"
    STAY = "S"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Transition:
    """One entry of the transition function."""

    new_state: str
    write: str
    move: Move


@dataclass(frozen=True)
class Configuration:
    """A full machine configuration: tape contents, head position and state.

    The tape is stored as a tuple of symbols covering cells ``0..len-1``;
    all cells beyond are blank.
    """

    tape: Tuple[str, ...]
    head: int
    state: str

    def symbol_at(self, cell: int) -> str:
        """Return the tape symbol at ``cell`` (blank beyond the stored prefix)."""
        if cell < 0:
            raise TuringMachineError(f"cell index must be non-negative, got {cell}")
        return self.tape[cell] if cell < len(self.tape) else BLANK


@dataclass(frozen=True)
class RunResult:
    """The outcome of running a machine with bounded fuel."""

    halted: bool
    steps: int
    output: Optional[str]
    final: Configuration
    history: Tuple[Configuration, ...]

    @property
    def outputs_zero(self) -> bool:
        """``True`` when the machine halted with output ``"0"`` (membership in L0)."""
        return self.halted and self.output == "0"

    @property
    def outputs_one(self) -> bool:
        """``True`` when the machine halted with output ``"1"`` (membership in L1)."""
        return self.halted and self.output == "1"


class TuringMachine:
    """An immutable deterministic single-tape Turing machine.

    Parameters
    ----------
    name:
        Human-readable name (used in reports and node labels).
    states:
        All control states, including ``start_state`` and ``halt_state``.
    alphabet:
        Tape alphabet.  The blank symbol is always included automatically.
    transitions:
        Mapping ``(state, symbol) -> Transition``.  Missing entries are not
        allowed for non-halting states over the full alphabet (the machine
        must be total), which keeps execution tables well defined.
    start_state / halt_state:
        Initial and halting control states.  No transitions may leave the
        halting state.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[str],
        alphabet: Iterable[str],
        transitions: Mapping[Tuple[str, str], Transition],
        start_state: str,
        halt_state: str = "halt",
    ) -> None:
        self.name = name
        self.states: Tuple[str, ...] = tuple(dict.fromkeys(states))
        alpha = list(dict.fromkeys(alphabet))
        if BLANK not in alpha:
            alpha.append(BLANK)
        self.alphabet: Tuple[str, ...] = tuple(alpha)
        self.start_state = start_state
        self.halt_state = halt_state
        self.transitions: Dict[Tuple[str, str], Transition] = dict(transitions)
        self._validate()

    def _validate(self) -> None:
        if self.start_state not in self.states:
            raise TuringMachineError(f"start state {self.start_state!r} not in state set")
        if self.halt_state not in self.states:
            raise TuringMachineError(f"halt state {self.halt_state!r} not in state set")
        for (state, symbol), tr in self.transitions.items():
            if state == self.halt_state:
                raise TuringMachineError("no transitions may leave the halting state")
            if state not in self.states:
                raise TuringMachineError(f"transition from unknown state {state!r}")
            if symbol not in self.alphabet:
                raise TuringMachineError(f"transition on unknown symbol {symbol!r}")
            if tr.new_state not in self.states:
                raise TuringMachineError(f"transition to unknown state {tr.new_state!r}")
            if tr.write not in self.alphabet:
                raise TuringMachineError(f"transition writes unknown symbol {tr.write!r}")
            if not isinstance(tr.move, Move):
                raise TuringMachineError(f"transition move must be a Move, got {tr.move!r}")
        for state in self.states:
            if state == self.halt_state:
                continue
            for symbol in self.alphabet:
                if (state, symbol) not in self.transitions:
                    raise TuringMachineError(
                        f"machine {self.name!r} is not total: no transition for ({state!r}, {symbol!r})"
                    )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def initial_configuration(self) -> Configuration:
        """Return the start configuration on a blank tape (head on cell 0)."""
        return Configuration(tape=(BLANK,), head=0, state=self.start_state)

    def is_halting(self, config: Configuration) -> bool:
        """Return ``True`` when the configuration's state is the halting state."""
        return config.state == self.halt_state

    def step(self, config: Configuration) -> Configuration:
        """Apply one transition to a non-halting configuration."""
        if self.is_halting(config):
            raise TuringMachineError("cannot step a halted configuration")
        symbol = config.symbol_at(config.head)
        tr = self.transitions[(config.state, symbol)]
        tape = list(config.tape)
        while len(tape) <= config.head:
            tape.append(BLANK)
        tape[config.head] = tr.write
        if tr.move == Move.LEFT:
            head = max(config.head - 1, 0)
        elif tr.move == Move.RIGHT:
            head = config.head + 1
        else:
            head = config.head
        while len(tape) <= head:
            tape.append(BLANK)
        return Configuration(tape=tuple(tape), head=head, state=tr.new_state)

    def run(self, fuel: int, keep_history: bool = True) -> RunResult:
        """Run the machine from a blank tape for at most ``fuel`` steps.

        Returns a :class:`RunResult`; ``halted`` is ``False`` when the fuel
        ran out first.  The history contains the configuration *before* each
        executed step plus the final configuration, i.e. exactly the rows of
        the paper's execution table when the machine halts within the fuel.
        """
        if fuel < 0:
            raise TuringMachineError(f"fuel must be non-negative, got {fuel}")
        if not keep_history:
            return self._run_in_place(fuel)
        config = self.initial_configuration()
        history: List[Configuration] = [config]
        steps = 0
        while steps < fuel and not self.is_halting(config):
            config = self.step(config)
            steps += 1
            history.append(config)
        halted = self.is_halting(config)
        output = config.symbol_at(config.head) if halted else None
        return RunResult(halted=halted, steps=steps, output=output, final=config, history=tuple(history))

    def _run_in_place(self, fuel: int) -> RunResult:
        """:meth:`run` without history: one mutable tape, stepped in place.

        :meth:`step` copies the whole tape per step, which makes long runs
        quadratic; this loop applies the same transitions to one list, so
        the result equals the step-by-step run's in every field.
        """
        transitions, halt = self.transitions, self.halt_state
        tape = [BLANK]
        head, state, steps = 0, self.start_state, 0
        while steps < fuel and state != halt:
            tr = transitions[(state, tape[head])]
            tape[head] = tr.write
            state = tr.new_state
            if tr.move is Move.LEFT:
                head = max(head - 1, 0)
            elif tr.move is Move.RIGHT:
                head += 1
                if head == len(tape):
                    tape.append(BLANK)
            steps += 1
        final = Configuration(tape=tuple(tape), head=head, state=state)
        halted = state == halt
        output = tape[head] if halted else None
        return RunResult(halted=halted, steps=steps, output=output, final=final, history=(final,))

    def halts_within(self, fuel: int) -> bool:
        """Return ``True`` when the machine halts within ``fuel`` steps from a blank tape."""
        return self.run(fuel, keep_history=False).halted

    def running_time(self, fuel: int) -> int:
        """Return the exact running time ``s`` (number of steps to halt).

        Raises
        ------
        TuringMachineError
            If the machine does not halt within ``fuel`` steps.
        """
        result = self.run(fuel, keep_history=False)
        if not result.halted:
            raise TuringMachineError(
                f"machine {self.name!r} did not halt within {fuel} steps; cannot report its running time"
            )
        return result.steps

    def output(self, fuel: int) -> Optional[str]:
        """Return the machine's output if it halts within ``fuel`` steps, else ``None``."""
        return self.run(fuel, keep_history=False).output

    # ------------------------------------------------------------------ #
    # Encoding (for node labels) and equality
    # ------------------------------------------------------------------ #

    def encode(self) -> str:
        """Return a canonical, hashable string encoding of the machine.

        The encoding is a JSON document with sorted keys; two machines with
        the same structure encode identically, which is what lets graph
        nodes "agree on M" by comparing label components.
        """
        doc = {
            "name": self.name,
            "states": list(self.states),
            "alphabet": list(self.alphabet),
            "start": self.start_state,
            "halt": self.halt_state,
            "transitions": {
                f"{state}|{symbol}": [tr.new_state, tr.write, tr.move.value]
                for (state, symbol), tr in sorted(self.transitions.items())
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def decode(cls, encoded: str) -> "TuringMachine":
        """Rebuild a machine from :meth:`encode` output.

        Decoding is cached: local algorithms decode the machine named in a
        node label at every node of every instance, and the encodings are
        shared across all nodes of one instance.
        """
        cached = _DECODE_CACHE.get(encoded)
        if cached is not None:
            return cached
        machine = cls._decode_uncached(encoded)
        if len(_DECODE_CACHE) > 256:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[encoded] = machine
        return machine

    @classmethod
    def _decode_uncached(cls, encoded: str) -> "TuringMachine":
        try:
            doc = json.loads(encoded)
            transitions = {
                tuple(key.split("|", 1)): Transition(new_state=val[0], write=val[1], move=Move(val[2]))
                for key, val in doc["transitions"].items()
            }
            return cls(
                name=doc["name"],
                states=doc["states"],
                alphabet=doc["alphabet"],
                transitions=transitions,  # type: ignore[arg-type]
                start_state=doc["start"],
                halt_state=doc["halt"],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TuringMachineError(f"invalid machine encoding: {exc}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TuringMachine):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())

    def __repr__(self) -> str:
        return (
            f"TuringMachine(name={self.name!r}, states={len(self.states)}, "
            f"alphabet={len(self.alphabet)})"
        )
