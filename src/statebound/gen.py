"""Deterministic system generators: clique, star, lotus (hub-and-petals),
seeded random systems, and disjoint unions of independent subsystems.

Random generation uses SplitMix64 so that a (spec, seed) pair reproduces the
exact same system on any platform or implementation; Python's own RNG is
deliberately avoided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DEFAULT_VAR_CAP, Action, PartialState, System, Variable

RNG_ALGORITHM = "splitmix64"
# Draws per action before gen_random gives up on finding a new one.
_RETRIES_PER_ACTION = 100

_MASK64 = (1 << 64) - 1


class GenerationError(ValueError):
    """A generator refused its parameters or ran out of retries."""


class SplitMix64:
    """SplitMix64 64-bit mixing generator (Steele, Lea & Flood).

    ``below(n)`` is made unbiased by rejection sampling against the largest
    multiple of n that fits in 64 bits.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % n

    def sample_ids(self, population: int, count: int) -> list[int]:
        """``count`` distinct ids from range(population), in draw order."""
        pool = list(range(population))
        out = []
        for i in range(count):
            j = i + self.below(population - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one generated system.

    ``n`` is the size parameter of the clique/star/lotus families; the
    remaining knobs only apply to the random family.
    """

    family: str  # "clique" | "star" | "lotus" | "random"
    n: int = 1
    seed: int = 0
    num_vars: int = 4
    num_actions: int = 6
    max_pre: int = 2
    max_eff: int = 2


def _encoded_state(mask: int, value: int) -> PartialState:
    """Full assignment over ``mask`` whose bits binary-encode ``value``
    (variable id = bit position, little-endian)."""
    return PartialState(mask, value & mask)


def _hub_leaf_variables(n: int) -> tuple[tuple[Variable, ...], int]:
    num_vars = max(1, math.ceil(math.log2(n + 1)))
    variables = tuple(Variable(i, f"v{i + 1}") for i in range(num_vars))
    return variables, (1 << num_vars) - 1


def gen_clique(m: int) -> System:
    """All 2^m unconditional full-assignment actions over m variables; the
    state space is a complete digraph."""
    if m < 1:
        raise GenerationError("clique needs at least one variable")
    if m > DEFAULT_VAR_CAP:
        raise GenerationError(f"clique with {m} variables exceeds the explicit-state cap")
    variables = tuple(Variable(i, f"v{i + 1}") for i in range(m))
    mask = (1 << m) - 1
    actions = [Action(PartialState(), _encoded_state(mask, value)) for value in range(1 << m)]
    return System(variables, tuple(actions))


def gen_star(n: int) -> System:
    """n one-way actions from the all-false hub state to each leaf state."""
    if n < 1:
        raise GenerationError("star needs at least one leaf")
    variables, mask = _hub_leaf_variables(n)
    hub = _encoded_state(mask, 0)
    actions = [Action(hub, _encoded_state(mask, i)) for i in range(1, n + 1)]
    return System(variables, tuple(actions))


def gen_lotus(n: int) -> System:
    """Hub-and-petals family: hub <-> leaf actions for each of n leaves.

    Its longest simple path stays at 2 while a single walk can visit all
    n + 1 connected states, which keeps the two properties exponentially far
    apart in the number of variables.
    """
    if n < 1:
        raise GenerationError("lotus needs at least one petal")
    variables, mask = _hub_leaf_variables(n)
    hub = _encoded_state(mask, 0)
    actions = []
    for i in range(1, n + 1):
        leaf = _encoded_state(mask, i)
        actions.append(Action(hub, leaf))
        actions.append(Action(leaf, hub))
    return System(variables, tuple(actions))


def gen_random(spec: GeneratorSpec) -> System:
    """Seeded random system; identical spec yields an identical system."""
    m = spec.num_vars
    if m < 1:
        raise GenerationError("random system needs at least one variable")
    if spec.num_actions < 1:
        raise GenerationError("random system needs at least one action")
    if spec.max_eff < 1:
        raise GenerationError("max_eff must be at least 1")
    rng = SplitMix64(spec.seed)
    variables = tuple(Variable(i, f"v{i + 1}") for i in range(m))

    def draw_side(max_size: int, min_size: int) -> PartialState:
        size = min_size + rng.below(min(max_size, m) - min_size + 1)
        ids = sorted(rng.sample_ids(m, size))
        return PartialState.from_items((vid, rng.below(2) == 1) for vid in ids)

    actions: list[Action] = []
    seen: set[Action] = set()
    for _ in range(spec.num_actions):
        for _attempt in range(_RETRIES_PER_ACTION):
            pre = draw_side(spec.max_pre, 0)
            eff = draw_side(spec.max_eff, 1)
            action = Action(pre, eff)
            if action not in seen:
                seen.add(action)
                actions.append(action)
                break
        else:
            raise GenerationError(
                f"could not draw {spec.num_actions} distinct actions "
                f"(seed={spec.seed}, vars={m})"
            )
    return System(variables, tuple(actions))


def provenance(spec: GeneratorSpec) -> dict:
    """Metadata stamp for serialized generated systems; names the RNG so
    seeds stay reproducible across implementations."""
    out: dict = {"family": spec.family, "rng": RNG_ALGORITHM}
    if spec.family == "random":
        out.update(
            seed=spec.seed,
            vars=spec.num_vars,
            actions=spec.num_actions,
            max_pre=spec.max_pre,
            max_eff=spec.max_eff,
        )
    else:
        out["n"] = spec.n
    return out


def generate(spec: GeneratorSpec) -> System:
    """Dispatch on the family tag."""
    if spec.family == "clique":
        return gen_clique(spec.n)
    if spec.family == "star":
        return gen_star(spec.n)
    if spec.family == "lotus":
        return gen_lotus(spec.n)
    if spec.family == "random":
        return gen_random(spec)
    raise GenerationError(f"unknown generator family {spec.family!r}")


def disjoint_union(systems: list[System]) -> System:
    """Combine systems over disjoint renamed variable sets; actions never
    interact across parts, so each part stays an independent cluster."""
    variables: list[Variable] = []
    actions: list[Action] = []
    offset = 0
    for part_index, system in enumerate(systems):
        for var in system.variables:
            variables.append(Variable(offset + var.id, f"p{part_index + 1}_{var.name}"))

        def shift(ps: PartialState, off: int = offset) -> PartialState:
            return PartialState(ps.mask << off, ps.bits << off)

        for action in system.actions:
            actions.append(Action(shift(action.pre), shift(action.eff)))
        offset += len(system.variables)
    return System(tuple(variables), tuple(actions))
