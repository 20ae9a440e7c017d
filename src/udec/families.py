"""Declarative descriptions of reference decoder classes.

A metric family fixes the *structure* of the scores a decoder may use
(additive over symbol pairs, additive over symbol pairs plus a deterministic
state, or additive over the modulo-sum of two user inputs).  The actual
parameter tensor is supplied separately when a score is evaluated, so a
family identifies a whole class of decoders at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError

ADDITIVE = "additive"
FINITE_STATE = "finite_state"
MAC_XOR_ADDITIVE = "mac_xor_additive"

_KINDS = (ADDITIVE, FINITE_STATE, MAC_XOR_ADDITIVE)


@dataclass(frozen=True)
class MetricFamily:
    """Structure of a class of decoding metrics.

    For ``finite_state`` families, ``next_state`` is a flattened lookup table
    indexed by ``(x * y_alphabet_size + y) * num_states + s`` giving the state
    that follows the current symbol pair.  The initial state is part of the
    family definition.
    """

    kind: str
    x_alphabet_size: int
    y_alphabet_size: int
    num_states: int = 1
    next_state: tuple[int, ...] = field(default=())
    initial_state: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown metric family kind: {self.kind!r}")
        if self.x_alphabet_size < 1 or self.y_alphabet_size < 1:
            raise InputError("alphabet sizes must be positive")
        if self.kind == FINITE_STATE:
            expected = self.x_alphabet_size * self.y_alphabet_size * self.num_states
            if len(self.next_state) != expected:
                raise InputError(
                    f"next_state table must have {expected} entries, "
                    f"got {len(self.next_state)}"
                )
            if any(not 0 <= s < self.num_states for s in self.next_state):
                raise InputError("next_state table entry out of range")
            if not 0 <= self.initial_state < self.num_states:
                raise InputError("initial state out of range")
        elif self.num_states != 1:
            raise InputError(f"{self.kind} families carry no state")

    def step(self, x: int, y: int, s: int) -> int:
        """Next state after observing the pair (x, y) in state s."""
        return self.next_state[(x * self.y_alphabet_size + y) * self.num_states + s]

    def state_sequence(self, xs, ys) -> tuple[int, ...]:
        """States visited while scanning the two sequences in lockstep.

        Returns one state per position; the state at position i is in effect
        *before* the pair (xs[i], ys[i]) is consumed.
        """
        if self.kind != FINITE_STATE:
            return (self.initial_state,) * len(xs)
        states = []
        s = self.initial_state
        for x, y in zip(xs, ys):
            states.append(s)
            s = self.step(x, y, s)
        return tuple(states)


def additive_family(x_alphabet_size: int, y_alphabet_size: int) -> MetricFamily:
    return MetricFamily(ADDITIVE, x_alphabet_size, y_alphabet_size)


def mac_xor_additive_family(alphabet_size: int, y_alphabet_size: int) -> MetricFamily:
    """Family of metrics on two user inputs that depend on them only through
    their modulo-``alphabet_size`` sum."""
    return MetricFamily(MAC_XOR_ADDITIVE, alphabet_size, y_alphabet_size)


def finite_state_family(
    x_alphabet_size: int,
    y_alphabet_size: int,
    num_states: int,
    next_state,
    initial_state: int = 0,
) -> MetricFamily:
    """Build a finite-state family from a callable or flat table.

    ``next_state`` may be a callable ``g(x, y, s) -> s'`` or an already
    flattened tuple in ``(x, y, s)`` row-major order.
    """
    return MetricFamily(
        FINITE_STATE,
        x_alphabet_size,
        y_alphabet_size,
        num_states=num_states,
        next_state=state_table(x_alphabet_size, y_alphabet_size, num_states, next_state),
        initial_state=initial_state,
    )


def state_table(xa: int, ya: int, num_states: int, next_state) -> tuple[int, ...]:
    """A next-state map as a flat table in ``(x, y, s)`` row-major order:
    a callable ``g(x, y, s) -> s'`` is tabulated, a table is copied."""
    if callable(next_state):
        return tuple(
            next_state(x, y, s) for x in range(xa) for y in range(ya) for s in range(num_states)
        )
    return tuple(next_state)
