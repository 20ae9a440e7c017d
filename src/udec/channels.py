"""Channel models used to exercise decoders.

Memoryless channels given by a stochastic matrix, modulo-additive channels
with stochastic or fixed individual noise words, deterministic-next-state
channels, and a two-user channel whose output depends on the inputs only
through their modulo sum.  Deterministic channels are first class: their
log-likelihood is 0 or -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import families, typeclasses
from .errors import InputError, UnsupportedCombinationError
from .typeclasses import Sequence

DMC = "dmc"
MOD_ADDITIVE = "mod_additive"
FINITE_STATE = "finite_state"
MAC_XOR = "mac_xor"


@dataclass(frozen=True)
class ChannelModel:
    kind: str
    x_alphabet_size: int
    y_alphabet_size: int
    matrix: tuple[tuple[float, ...], ...] = ()          # dmc: W(y|x)
    noise_probs: tuple[float, ...] = ()                 # mod_additive, stochastic
    noise_word: tuple[int, ...] = ()                    # mod_additive, fixed
    num_states: int = 1                                 # finite_state
    next_state: tuple[int, ...] = ()                    # flattened over (x, y, s)
    initial_state: int = 0
    state_matrix: tuple[tuple[tuple[float, ...], ...], ...] = ()  # W(y|x,s)
    inner: "ChannelModel | None" = field(default=None)  # mac_xor

    def step(self, x: int, y: int, s: int) -> int:
        return self.next_state[(x * self.y_alphabet_size + y) * self.num_states + s]


def _check_rows(rows, width, what):
    for row in rows:
        if len(row) != width:
            raise InputError(f"{what} row has wrong width")
        if any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-12:
            raise InputError(f"{what} rows must be normalized")


def dmc(matrix) -> ChannelModel:
    matrix = tuple(tuple(float(p) for p in row) for row in matrix)
    _check_rows(matrix, len(matrix[0]), "channel matrix")
    return ChannelModel(DMC, len(matrix), len(matrix[0]), matrix=matrix)


def bsc(p: float) -> ChannelModel:
    if not 0.0 <= p <= 1.0:
        raise InputError("crossover probability must be in [0, 1]")
    return dmc(((1.0 - p, p), (p, 1.0 - p)))


def mod_additive_iid(noise_probs) -> ChannelModel:
    noise_probs = tuple(float(p) for p in noise_probs)
    _check_rows((noise_probs,), len(noise_probs), "noise distribution")
    a = len(noise_probs)
    return ChannelModel(MOD_ADDITIVE, a, a, noise_probs=noise_probs)


def mod_additive_fixed(noise_word, alphabet_size: int = 2) -> ChannelModel:
    word = tuple(int(v) for v in noise_word)
    if any(not 0 <= v < alphabet_size for v in word):
        raise InputError("noise symbol out of range")
    return ChannelModel(MOD_ADDITIVE, alphabet_size, alphabet_size, noise_word=word)


def finite_state_channel(
    x_alphabet_size: int,
    y_alphabet_size: int,
    num_states: int,
    next_state,
    state_matrix,
    initial_state: int = 0,
) -> ChannelModel:
    """``next_state`` is a callable g(x, y, s) -> s' or a flat table;
    ``state_matrix[s][x]`` is the output distribution in state s."""
    sm = tuple(
        tuple(tuple(float(p) for p in row) for row in per_state)
        for per_state in state_matrix
    )
    for per_state in sm:
        _check_rows(per_state, y_alphabet_size, "state channel matrix")
    return ChannelModel(
        FINITE_STATE,
        x_alphabet_size,
        y_alphabet_size,
        num_states=num_states,
        next_state=families.state_table(
            x_alphabet_size, y_alphabet_size, num_states, next_state
        ),
        initial_state=initial_state,
        state_matrix=sm,
    )


def mac_xor(inner: ChannelModel) -> ChannelModel:
    """Two-user channel: the single-input ``inner`` channel applied to the
    modulo-sum of the two user words."""
    return ChannelModel(
        MAC_XOR, inner.x_alphabet_size, inner.y_alphabet_size, inner=inner
    )


def transmit(channel: ChannelModel, x: Sequence, seed) -> Sequence:
    """Sample an output word; deterministic given the seed.  Channels with a
    fixed noise word ignore the randomness entirely."""
    if x.alphabet_size != channel.x_alphabet_size:
        raise InputError("input alphabet does not match channel")
    n = len(x)
    ya = channel.y_alphabet_size
    if channel.kind == MOD_ADDITIVE and channel.noise_word:
        if len(channel.noise_word) != n:
            raise InputError("fixed noise word length mismatch")
        out = tuple((v + z) % ya for v, z in zip(x, channel.noise_word))
        return Sequence(out, ya)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if channel.kind == DMC:
        cum = np.cumsum(np.asarray(channel.matrix), axis=1)
        rows = cum[np.fromiter(x, dtype=np.int64, count=n)]
        out_vals = (rng.random((n, 1)) > rows[:, :-1]).sum(axis=1)
        return Sequence(tuple(int(v) for v in out_vals), ya)
    if channel.kind == MOD_ADDITIVE:
        cum = np.cumsum(np.asarray(channel.noise_probs))
        noise = (rng.random((n, 1)) > cum[:-1]).sum(axis=1)
        out_vals = (np.fromiter(x, dtype=np.int64, count=n) + noise) % ya
        return Sequence(tuple(int(v) for v in out_vals), ya)
    if channel.kind == FINITE_STATE:
        s = channel.initial_state
        out = []
        for v in x:
            yi = int(rng.choice(ya, p=np.asarray(channel.state_matrix[s][v])))
            out.append(yi)
            s = channel.step(v, yi, s)
        return Sequence(tuple(out), ya)
    raise UnsupportedCombinationError(f"transmit undefined for {channel.kind}")


def mac_transmit(channel: ChannelModel, x1: Sequence, x2: Sequence, seed) -> Sequence:
    if channel.kind != MAC_XOR:
        raise InputError("mac_transmit requires a two-user channel")
    if len(x1) != len(x2) or x1.alphabet_size != x2.alphabet_size:
        raise InputError("user words must share length and alphabet")
    z = mod_sum(x1, x2)
    return transmit(channel.inner, z, seed)


def mod_sum(x1: Sequence, x2: Sequence) -> Sequence:
    a = x1.alphabet_size
    return Sequence(tuple((u + v) % a for u, v in zip(x1, x2)), a)


def log_likelihood(channel: ChannelModel, x: Sequence, y: Sequence) -> float:
    """Exact log2 P(y|x); -inf for impossible outputs."""
    if len(x) != len(y):
        raise InputError("length mismatch")
    if channel.kind == DMC:
        joint = typeclasses.empirical_joint_type(x, y).counts
        pairs = ((channel.matrix[v][w], c) for v, row in enumerate(joint) for w, c in enumerate(row) if c)
        return typeclasses.log2_product(pairs)
    if channel.kind == MOD_ADDITIVE:
        ya = channel.y_alphabet_size
        noise = [(w - v) % ya for v, w in zip(x, y)]
        if channel.noise_word:
            return 0.0 if tuple(noise) == channel.noise_word else -math.inf
        return typeclasses.log2_product(zip(channel.noise_probs, map(noise.count, range(ya))))
    if channel.kind == FINITE_STATE:
        s = channel.initial_state
        terms = []
        for v, w in zip(x, y):
            p = channel.state_matrix[s][v][w]
            if p == 0.0:
                return -math.inf
            terms.append(math.log2(p))
            s = channel.step(v, w, s)
        return math.fsum(terms)
    raise UnsupportedCombinationError(f"log_likelihood undefined for {channel.kind}")


def mac_log_likelihood(
    channel: ChannelModel, x1: Sequence, x2: Sequence, y: Sequence
) -> float:
    if channel.kind != MAC_XOR:
        raise InputError("mac_log_likelihood requires a two-user channel")
    return log_likelihood(channel.inner, mod_sum(x1, x2), y)
