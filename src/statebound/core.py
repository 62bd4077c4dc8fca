"""Factored transition systems: states, actions, execution, explicit state space.

A system is a finite set of actions over named Boolean variables. Partial and
total assignments are packed into integer bitmasks keyed by variable id, which
keeps execution and state-space construction cheap enough to enumerate a few
million states when asked to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

# Explicit state-space construction is exponential; refuse beyond this many
# used variables unless the caller raises the cap knowingly.
DEFAULT_VAR_CAP = 20


def timed_ms(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)``; returns (its result, wall time in ms)."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - started) * 1000.0


class DomainMismatchError(ValueError):
    """An action or state refers to variables outside the system's domain."""


class StateSpaceTooLargeError(RuntimeError):
    """The explicit state space would exceed the configured cap."""


@dataclass(frozen=True, order=True)
class Variable:
    """A named Boolean state variable with a dense per-system id."""

    id: int
    name: str


@dataclass(frozen=True)
class PartialState:
    """Partial Boolean assignment packed as (mask, bits).

    Bit i of ``mask`` is set iff variable id i is assigned; bit i of ``bits``
    then gives the assigned value. Unassigned positions of ``bits`` are zero.
    """

    mask: int = 0
    bits: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0 or self.bits < 0:
            raise ValueError("mask/bits must be non-negative")
        if self.bits & ~self.mask:
            raise ValueError("bits set outside mask")

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, bool]]) -> "PartialState":
        """Build from (variable id, value) pairs; contradictions are an error."""
        mask = 0
        bits = 0
        for var_id, value in items:
            b = 1 << var_id
            if mask & b and bool(bits & b) != bool(value):
                raise ValueError(f"variable id {var_id} assigned both polarities")
            mask |= b
            if value:
                bits |= b
        return cls(mask, bits)

    def domain(self) -> tuple[int, ...]:
        """Assigned variable ids, ascending."""
        out = []
        m = self.mask
        i = 0
        while m:
            if m & 1:
                out.append(i)
            m >>= 1
            i += 1
        return tuple(out)

    def items(self) -> Iterator[tuple[int, bool]]:
        for var_id in self.domain():
            yield var_id, bool(self.bits >> var_id & 1)

    def value(self, var_id: int) -> bool:
        if not self.mask >> var_id & 1:
            raise KeyError(var_id)
        return bool(self.bits >> var_id & 1)

    def __contains__(self, var_id: int) -> bool:
        return bool(self.mask >> var_id & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class FullState(PartialState):
    """Total assignment over exactly the owning system's used variables."""


def union_precedence(s1: PartialState, s2: PartialState) -> PartialState:
    """Union of two partial states where s1 wins on shared variables."""
    return PartialState(s1.mask | s2.mask, s1.bits | (s2.bits & ~s1.mask))


@dataclass(frozen=True)
class Action:
    """A precondition/effect pair of partial states."""

    pre: PartialState
    eff: PartialState

    @property
    def domain_mask(self) -> int:
        return self.pre.mask | self.eff.mask

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.pre.mask, self.pre.bits, self.eff.mask, self.eff.bits)


@dataclass(frozen=True)
class System:
    """A factored transition system: declared variables plus a set of actions.

    Actions are deduplicated and kept in a canonical order (sorted by their
    precondition/effect bit patterns) so that identical systems compare and
    serialize identically. Declared variables never referenced by an action
    are allowed but excluded from the used domain.
    """

    variables: tuple[Variable, ...]
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        names = set()
        for index, var in enumerate(variables):
            if var.id != index:
                raise ValueError(f"variable ids must be dense: {var} at position {index}")
            if var.name in names:
                raise ValueError(f"duplicate variable name {var.name!r}")
            names.add(var.name)
        declared_mask = (1 << len(variables)) - 1
        canonical = sorted(set(self.actions), key=Action.sort_key)
        for action in canonical:
            if action.domain_mask & ~declared_mask:
                raise DomainMismatchError(
                    f"action uses undeclared variable ids: {action}"
                )
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "actions", tuple(canonical))

    @classmethod
    def from_names(cls, names: Iterable[str], actions: Iterable[Action] = ()) -> "System":
        return cls(tuple(Variable(i, n) for i, n in enumerate(names)), tuple(actions))

    @cached_property
    def domain_mask(self) -> int:
        mask = 0
        for action in self.actions:
            mask |= action.domain_mask
        return mask

    @cached_property
    def domain(self) -> tuple[int, ...]:
        """Used variable ids (union of action domains), ascending."""
        return PartialState(self.domain_mask, 0).domain()

    @property
    def num_domain_vars(self) -> int:
        return len(self.domain)

    @cached_property
    def var_by_name(self) -> Mapping[str, Variable]:
        return {v.name: v for v in self.variables}

    def partial_state(self, assignment: Mapping[str, bool]) -> PartialState:
        """Build a partial state from a name -> value mapping."""
        return PartialState.from_items(
            (self.var_by_name[name].id, value) for name, value in assignment.items()
        )

    def full_state(self, assignment: Mapping[str, bool] | PartialState) -> FullState:
        """Build a full state; the assignment must cover the used domain exactly."""
        partial = (
            assignment
            if isinstance(assignment, PartialState)
            else self.partial_state(assignment)
        )
        if partial.mask != self.domain_mask:
            raise DomainMismatchError("assignment does not cover the used domain exactly")
        return FullState(partial.mask, partial.bits)

    def state_of_index(self, code: int) -> FullState:
        """Vertex id -> full state; domain position p carries bit p of the id."""
        bits = 0
        for pos, var_id in enumerate(self.domain):
            if code >> pos & 1:
                bits |= 1 << var_id
        return FullState(self.domain_mask, bits)

    def index_of_state(self, state: FullState) -> int:
        if state.mask != self.domain_mask:
            raise DomainMismatchError("state does not cover the used domain exactly")
        code = 0
        for pos, var_id in enumerate(self.domain):
            if state.bits >> var_id & 1:
                code |= 1 << pos
        return code

    def format_state(self, state: PartialState) -> str:
        """Render a state as comma-separated literals (``!name`` for false)."""
        parts = []
        for var_id, value in state.items():
            name = self.variables[var_id].name
            parts.append(name if value else "!" + name)
        return ",".join(parts)


def execute(system: System, state: FullState, action: Action) -> FullState:
    """Apply one action: unchanged state if the precondition fails, else
    effects overwrite the state."""
    if action.domain_mask & ~system.domain_mask:
        raise DomainMismatchError("action references variables outside the system domain")
    if state.mask != system.domain_mask:
        raise DomainMismatchError("state does not cover the used domain exactly")
    if (state.bits & action.pre.mask) != action.pre.bits:
        return state
    return FullState(state.mask, action.eff.bits | (state.bits & ~action.eff.mask))


def execute_sequence(
    system: System, state: FullState, actions: Iterable[Action]
) -> tuple[FullState, list[FullState]]:
    """Apply actions in order; returns the final state and the full trace
    (length = number of actions + 1, starting at the initial state)."""
    trace = [state]
    current = state
    for action in actions:
        current = execute(system, current, action)
        trace.append(current)
    return current, trace


@dataclass(frozen=True)
class TransitionGraph:
    """Explicit state space: vertex i is the state binary-encoding i over the
    used domain; edges are action-induced transitions, self-loops excluded."""

    system: System
    adj: tuple[tuple[int, ...], ...]
    # What the oracle derives from the graph alone (SCC condensation, longest
    # simple path), kept here so each is computed once per graph.
    derived: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def num_states(self) -> int:
        return len(self.adj)

    @cached_property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj)

    @cached_property
    def states(self) -> tuple[FullState, ...]:
        return tuple(self.system.state_of_index(i) for i in range(self.num_states))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, succs in enumerate(self.adj):
            for v in succs:
                yield u, v


def _compact_mask(mask: int, positions: Mapping[int, int]) -> int:
    out = 0
    for var_id, pos in positions.items():
        if mask >> var_id & 1:
            out |= 1 << pos
    return out


def build_transition_graph(system: System, max_vars: int = DEFAULT_VAR_CAP) -> TransitionGraph:
    """Enumerate the full state space and all non-self-loop transitions.

    Raises StateSpaceTooLargeError when the used domain exceeds ``max_vars``
    variables; callers are expected to fall back to factored methods.
    """
    m = system.num_domain_vars
    if m > max_vars:
        raise StateSpaceTooLargeError(
            f"{m} used variables exceed the explicit-state cap of {max_vars}"
        )
    positions = {var_id: pos for pos, var_id in enumerate(system.domain)}
    compacted = [
        (
            _compact_mask(a.pre.mask, positions),
            _compact_mask(a.pre.bits, positions),
            _compact_mask(a.eff.mask, positions),
            _compact_mask(a.eff.bits, positions),
        )
        for a in system.actions
    ]
    adj = []
    for code in range(1 << m):
        succs = set()
        for pre_mask, pre_bits, eff_mask, eff_bits in compacted:
            if code & pre_mask != pre_bits:
                continue
            succ = (code & ~eff_mask) | eff_bits
            if succ != code:
                succs.add(succ)
        adj.append(tuple(sorted(succs)))
    return TransitionGraph(system, tuple(adj))
