"""The layer that both dual kinds share: the degree index of a horizon, the
one validation of a stack of maps (`checked_maps`) and of level maps
(`checked_levels`), the coassociativity defects, the intertwining relation,
the level recursion and the rank test of level maps, and `GradedAlgebra`.

It is a module of its own so that the system path (`systems`, `serialize`,
the CLI's file commands) does not load the theory of `graded` (D1..D7,
twists, the image and kernel conditions, `extend_morphism`), which no system
file reaches.  `GradedAlgebra` is here, not in `systems`, so that `graded`
never imports the pipeline.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .tensorlinalg import DEFAULT_EPS, Record, matmul2, require_finite


# Per-triple checks (O(h^3) of them; pair stacks are not chunked) run over at
# most CHUNK triples at a time: in the coassociativity check, as `matmul2`
# contractions of entry-major (m, 2, T) operands gathered along their last,
# triple axis; in the kernel check, as stacked SVDs.  Sized by measurement:
# 256 keeps the peak of `check_axioms` under 1 MiB at h = 64 (the kernel check
# peaks at ~2.4 MiB at h = 32), while each array operation spans enough
# triples to amortise its fixed cost.
CHUNK = 256


class DegreeIndex(Record):
    """The degree pairs (s, t) with s + t <= horizon and triples (r, s, t)
    with r + s + t <= horizon, in nested-loop order.

    `positions` maps each pair to its position in `pairs`; `levels` holds the
    (s, t) of each pair as an array, and `sides` the positions s - 1, t - 1
    and s + t - 1 of theta_s, theta_t and theta_{s+t} in a stack of level
    maps theta_1..theta_h; `rs`, `rs_t`, `st` and `r_st` hold, for each
    triple, the positions in `pairs` of (r, s), (r + s, t), (s, t) and
    (r, s + t), to gather stacked per-pair maps.
    """

    __slots__ = ("pairs", "triples", "positions", "levels", "sides", "rs", "rs_t", "st", "r_st")
    _shown = ("pairs", "triples")

    def __init__(self, pairs: tuple, triples: tuple, positions: dict, levels: np.ndarray,
                 sides: np.ndarray, rs: np.ndarray, rs_t: np.ndarray, st: np.ndarray,
                 r_st: np.ndarray):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "rs_t", rs_t)
        object.__setattr__(self, "st", st)
        object.__setattr__(self, "r_st", r_st)


def _pairs(horizon: int):
    """The degree pairs (s, t), s + t <= horizon, in nested-loop order."""
    return ((s, t) for s in range(1, horizon) for t in range(1, horizon - s + 1))


@functools.lru_cache(maxsize=16)
def degree_index(horizon: int) -> DegreeIndex:
    """The DegreeIndex of a horizon (cached; its arrays are read-only)."""
    pairs = tuple(_pairs(horizon))
    triples = tuple((r, s, t) for r in range(1, horizon - 1)
                    for s in range(1, horizon - r)
                    for t in range(1, horizon - r - s + 1))
    pos = {p: i for i, p in enumerate(pairs)}
    gather = np.array([[pos[(r, s)], pos[(r + s, t)], pos[(s, t)], pos[(r, s + t)]]
                       for r, s, t in triples], dtype=np.intp).reshape(-1, 4)
    levels = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    sides = np.column_stack([levels - 1, levels.sum(axis=1) - 1])
    for a in (gather, levels, sides):
        a.setflags(write=False)
    return DegreeIndex(pairs, triples, pos, levels, sides, *gather.T)


def _chunks(n: int):
    """Slices covering range(n) in order, CHUNK at a time."""
    return (slice(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))


class _Views(Mapping):
    """Each key of `positions` mapped to a view of `stack` at its position,
    made on lookup, in the key order of `positions`; lookups, `in`, `get` and
    `len` are those of the dict `positions`.  The holders of a stack hand it
    out behind a `MappingProxyType`, so no view is made at construction."""

    __slots__ = ("_stack", "_positions")

    def __init__(self, stack: np.ndarray, positions: dict):
        self._stack, self._positions = stack, positions

    def __getitem__(self, key):
        return self._stack[self._positions[key]]

    def __contains__(self, key):
        return key in self._positions

    def __iter__(self):
        return iter(self._positions)

    def __len__(self):
        return len(self._positions)


def checked_stack(horizon: int, stack, name: str, shape: tuple) -> tuple:
    """The one validation of the maps of a system or graded algebra: `stack`
    as a read-only C-contiguous complex (P, *shape) stack in
    `degree_index(horizon).pairs` order, and a read-only mapping of each pair
    to a view into it, made on lookup.  A stack that already is complex and
    C-contiguous is adopted, not copied, and made read-only in place.
    ValueError for a horizon below 3, another shape, or a non-finite entry,
    checked in that order."""
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    stack = np.ascontiguousarray(stack, dtype=complex)
    want = (horizon * (horizon - 1) // 2, *shape)
    if stack.shape != want:
        raise ValueError(f"{name} stack must be {'x'.join(map(str, want))} at horizon "
                         f"{horizon}, not {'x'.join(map(str, stack.shape))}")
    require_finite(stack).setflags(write=False)
    return stack, MappingProxyType(_Views(stack, degree_index(horizon).positions))


# the types of a bool, which a dict lookup takes for the integer 0 or 1
_BOOL_TYPES = frozenset((bool, np.bool_))


def checked_maps(horizon: int, maps, name: str, shape: tuple, noun: str) -> tuple:
    """The maps of a system or graded algebra as `checked_stack` returns them.
    A (P, *shape) stack in pairs order is validated as it is.  A dict keyed
    by (s, t) is first gathered into one stack, copied once, then validated
    the same way.  ValueError for a horizon below 3, a stray (s, t) (every
    key must be a pair of integral numbers, no bool, with 1 <= s, t and s + t
    <= horizon), a map that is not 2-d or has the wrong shape, a missing
    map, or a non-finite entry, checked in that order."""
    if isinstance(maps, np.ndarray):
        return checked_stack(horizon, maps, name, shape)
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    try:  # stops at the first missing pair, among the first len(maps) + 1,
        # before `degree_index` enumerates the O(horizon^3) triples
        stack = np.array([maps[p] for p in _pairs(horizon)], dtype=complex)
    except (KeyError, TypeError, ValueError):
        stack = None
    if (stack is None or len(stack) != len(maps) or stack.shape[1:] != shape
            # every key is now a pair equal to (s, t); (True, 1) is equal to (1, 1)
            or not _BOOL_TYPES.isdisjoint(map(type, itertools.chain.from_iterable(maps)))):
        _refuse_maps(horizon, maps, name, shape, noun)
    return checked_stack(horizon, stack, name, shape)


def _refuse_maps(horizon: int, maps: dict, name: str, shape: tuple, noun: str) -> None:
    """Raise the first fault of `maps` in the order of `checked_maps`, key by
    key: not a pair, stray, not 2-d, wrong shape; then the first missing pair."""
    for key, m in maps.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in key)):
            raise ValueError(f"{name} key {key!r} is not a pair (s, t) of degrees")
        s, t = key
        if s < 1 or t < 1 or s + t > horizon:
            raise ValueError(f"{name}[{s},{t}] lies outside horizon {horizon}")
        if s % 1 or t % 1:
            raise ValueError(f"{name}[{s},{t}] names no degree pair")
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2:
            raise ValueError("expected a 2-d array")
        if m.shape != shape:
            raise ValueError(f"{name}[{s},{t}] must be {shape[0]}x{shape[1]}")
    for s, t in _pairs(horizon):
        if (s, t) not in maps:
            raise ValueError(f"missing {noun} {name}[{s},{t}]")


@functools.lru_cache(maxsize=16)
def _level_positions(n: int) -> dict:
    """Each level t = 1..n mapped to its position t - 1 in a stack."""
    return {t: t - 1 for t in range(1, n + 1)}


def checked_levels(theta) -> tuple:
    """The level maps theta_1..theta_n of a `SystemIso` or `GradedMorphism`, a
    dict keyed by level or an (n, 2, 2) stack, as a read-only C-contiguous
    complex stack (a complex C-contiguous one is adopted, not copied) and a
    read-only mapping of each level t to the view stack[t - 1], made on
    lookup.  ValueError naming a bool key of a dict (which a dict lookup takes
    for the level 0 or 1), then its first missing level (keys must be 1..n),
    then for no level, for maps that are not 2x2, or for a non-finite entry."""
    if not isinstance(theta, np.ndarray):
        flag = next((key for key in theta if type(key) in _BOOL_TYPES), None)
        if flag is not None:
            raise ValueError(f"level key {flag!r} is not a level t")
        levels = range(1, len(theta) + 1)
        missing = [t for t in levels if t not in theta]
        if missing:
            raise ValueError(f"missing level map {missing[0]}")
        theta = [theta[t] for t in levels]
    stack = np.ascontiguousarray(theta, dtype=complex)
    if stack.shape[1:] != (2, 2) or not len(stack):
        raise ValueError("level maps must be 2x2" if len(stack) else "no level maps")
    require_finite(stack).setflags(write=False)
    return stack, MappingProxyType(_Views(stack, _level_positions(len(stack))))


def pair_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=(1, 2)) for a real (P, m, n) stack, bit for bit (max is
    exact, and a NaN propagates): one np.maximum.reduce over an entry-major
    contiguous (m * n, P) copy, which reduces P lanes at a time."""
    return np.maximum.reduce(np.ascontiguousarray(a.reshape(len(a), -1).T))


def triple_residuals(maps: np.ndarray, idx: DegreeIndex) -> np.ndarray:
    """Coassociativity defects in idx.triples order:
    max |(b[r,s] (x) I2) b[r+s,t] - (I2 (x) b[s,t]) b[r,s+t]| per triple,
    where `maps` stacks the 4x2 maps b in idx.pairs order.  (B (x) I2) C
    contracts B with the first factor of C's rows, (I2 (x) B) C with the
    second, so neither Kronecker product is formed.  The stack is made
    entry-major, (4, 2, P), once; each chunk's operands are gathered along
    its last axis, and each triple's 16 defects reduced by one
    np.maximum.reduce over the entry axis."""
    lanes = np.ascontiguousarray(maps.transpose(1, 2, 0))
    out = np.empty(len(idx.triples))
    for sl in _chunks(len(idx.triples)):
        left = matmul2(np.take(lanes, idx.rs[sl], axis=-1),
                       np.take(lanes, idx.rs_t[sl], axis=-1).reshape(2, 4, -1)).reshape(16, -1)
        left -= matmul2(np.take(lanes, idx.st[sl], axis=-1),
                        np.take(lanes, idx.r_st[sl], axis=-1).reshape(2, 2, 2, -1)).reshape(16, -1)
        out[sl] = np.maximum.reduce(np.abs(left))
    return out


class GradedAlgebra(Record):
    """Multiplication maps M[s, t]: 2x4 matrices for s + t <= horizon.

    Built from a dict of the maps keyed by (s, t), or from their (P, 2, 4)
    stack in `degree_index(horizon).pairs` order (`checked_maps`).  `stack`
    holds every map, read-only; `M` is a read-only mapping whose M[s, t] is a
    view into it.  A copy or unpickled instance is rebuilt from the stack."""

    __slots__ = ("horizon", "M", "stack")
    _shown = ("horizon",)

    def __init__(self, horizon: int, M: dict):
        stack, maps = checked_maps(horizon, M, "M", (2, 4), "multiplication map")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "M", maps)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.horizon, self.stack)

    def associativity_residual(self) -> float:
        # the defect of M is that of its transpose, the dual system's beta
        residuals = triple_residuals(self.stack.transpose(0, 2, 1), degree_index(self.horizon))
        return float(np.fmax.reduce(residuals, initial=0.0))


def intertwining(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Both sides of (theta_s (x) theta_t) src[s, t] = dst[s, t] theta_{s+t},
    as entry-major (4, 2, P) stacks with the pairs in order along the last
    axis, for the (h, 2, 2) stack theta and two systems' (P, 4, 2) stacks.  A
    graded morphism is this relation on the transposes.
    (theta_s (x) theta_t) X is formed as (theta_s (x) I2)((I2 (x) theta_t) X);
    theta_s, theta_t and theta_{s+t} of every pair come from one gather,
    made pairs-last by it, and each system's stack is made entry-major once."""
    sides = degree_index(len(theta)).sides.T
    gathered = np.take(theta.transpose(1, 2, 0), sides, axis=-1)  # (2, 2, 3, P)
    theta_s, theta_t, theta_st = gathered.transpose(2, 0, 1, 3)
    src, dst = (np.ascontiguousarray(m.transpose(1, 2, 0)) for m in (src, dst))
    inner = matmul2(theta_t, src.reshape(2, 2, 2, -1))
    lhs = matmul2(theta_s, inner.reshape(2, 4, -1)).reshape(4, 2, -1)
    return lhs, matmul2(dst, theta_st)


def intertwining_defects(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """(defects, residuals) for the (h, 2, 2) stack theta and two systems'
    (P, 4, 2) stacks, in pairs order: the entry-major (8, P) stack |lhs - rhs|
    of `intertwining`, entry 2 i + j of a pair its (i, j) entry, and the
    relative residual of each pair, its largest defect scaled by max(1, the
    largest |entry| of either side), each maximum one np.maximum.reduce over
    the entry axis.  The one residual rule of `systems.iso_residuals`,
    `classify_system` and `extend_morphism`."""
    lhs, rhs = (side.reshape(8, -1) for side in intertwining(theta, src, dst))
    scale = np.maximum(1.0, np.maximum.reduce(np.maximum(np.abs(lhs), np.abs(rhs))))
    defects = np.abs(lhs - rhs)
    return defects, np.maximum.reduce(defects) / scale


def extend_levels(theta1, left, maps, lam=None) -> np.ndarray:
    """The (h, 2, 2) stack theta_1..theta_h, h = len(maps) + 1, with theta_n =
    left[n-2] (theta_1 (x) theta_{n-1}) maps[n-2]: the level recursion of a
    system iso (maps = beta[1, .], left = left inverses of the target's
    beta[1, .], an (h - 1, 2, 4) stack, or one 2x4 map for every level as
    nested lists of Python complex).  It runs on Python complex scalars, each
    operand stack read by one `tolist()`:
    z = (I2 (x) theta_{n-1}) maps[n-2], then y = (theta_1 (x) I2) z, then
    left[n-2] y, each sum taken left to right.

    With `lam`, the target is E3(lam), whose automorphisms include a_t(x) =
    [[1, x S_t], [0, 1]], S_t = 1 + lam + ... + lam^(t-1), with a(x) a(y) =
    a(x + y); theta is gauged by one of them.  After each level n with
    |S_n| >= 1/2, c = <r2, r1> / <r2, r2> of its rows r1, r2 makes them
    orthogonal (r1 -= c r2, which is a_n(x) for x = -c / S_n), and theta_1
    takes a_1(x) (r1 += x r2), so the later levels are solved in the gauge
    reached so far.  One backward pass then gives each level m the x of every
    later level, summed, as that sum times S_m r2.  For |lam| > 1 this keeps
    theta_n from growing a first row of size |lam|^n; inside the loop, each
    level is solved from gauged rows, so its rounding stays sized to them."""
    (a, b), (c, d) = np.asarray(theta1).tolist()
    # a stack's first entry is a 2x4 map; one map's first entry is a row of 4
    lefts = [left] * len(maps) if len(left[0]) == 4 else np.asarray(left).tolist()
    out = [a, b, c, d]  # theta_1 (its first row is set last), theta_2, ... flat
    gauges = []  # per level n >= 2: (S_n, the x it added to theta_1)
    e, f, g, k = a, b, c, d  # theta_{n-1}
    s_n = 1
    for (l0, l1), ((b00, b01), (b10, b11), (b20, b21), (b30, b31)) in zip(
            lefts, np.asarray(maps).tolist()):
        z00, z01 = e * b00 + f * b10, e * b01 + f * b11
        z10, z11 = g * b00 + k * b10, g * b01 + k * b11
        z20, z21 = e * b20 + f * b30, e * b21 + f * b31
        z30, z31 = g * b20 + k * b30, g * b21 + k * b31
        y00, y01 = a * z00 + b * z20, a * z01 + b * z21
        y10, y11 = a * z10 + b * z30, a * z11 + b * z31
        y20, y21 = c * z00 + d * z20, c * z01 + d * z21
        y30, y31 = c * z10 + d * z30, c * z11 + d * z31
        e = l0[0] * y00 + l0[1] * y10 + l0[2] * y20 + l0[3] * y30
        f = l0[0] * y01 + l0[1] * y11 + l0[2] * y21 + l0[3] * y31
        g = l1[0] * y00 + l1[1] * y10 + l1[2] * y20 + l1[3] * y30
        k = l1[0] * y01 + l1[1] * y11 + l1[2] * y21 + l1[3] * y31
        if lam is not None:
            s_n = 1 + lam * s_n
            x = 0
            gc, kc = g.conjugate(), k.conjugate()
            r2 = (gc * g + kc * k).real
            # no division by zero: a zero or NaN row, or |S_n| < 1/2, is skipped
            if r2 > 0 and (s_n * s_n.conjugate()).real >= 0.25:
                cc = (gc * e + kc * f) / r2
                e, f = e - cc * g, f - cc * k
                x = -cc / s_n
                a, b = a + x * c, b + x * d
            gauges.append((s_n, x))
        out += (e, f, g, k)
    out[:2] = a, b
    later = 0
    for i in range(len(gauges) - 1, -1, -1):  # theta_{i+2}, from the top down
        if later:
            shift = later * gauges[i][0]
            j = 4 * i + 4
            out[j] += shift * out[j + 2]
            out[j + 1] += shift * out[j + 3]
        later += gauges[i][1]
    return np.array(out, dtype=complex).reshape(-1, 2, 2)


def equilibrated_levels(levels: np.ndarray) -> tuple:
    """(norms, q) of an (h, 2, 2) stack: the (h, 2) row norms, and per level
    q = |det| of the map with each row scaled to unit norm, so |det| =
    q * norms[:, 0] * norms[:, 1].  q is NaN for a zero or non-finite row."""
    levels = np.ascontiguousarray(levels, dtype=complex)
    rows = np.abs(levels)
    norms = np.hypot(rows[..., 0], rows[..., 1])
    with np.errstate(invalid="ignore"):  # a zero row: 0 / 0, then NaN is singular
        # real and imaginary parts divided apart, which no subnormal norm overflows
        u = (levels.view(float).reshape(-1, 2, 2, 2) / norms[..., None, None]).view(complex)
        q = np.abs(u[:, 0, 0, 0] * u[:, 1, 1, 0] - u[:, 0, 1, 0] * u[:, 1, 0, 0])
    return norms, q


def rank_lost(q: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """The test of `singular_levels` on q of `equilibrated_levels`:
    q <= eps * (1 + sqrt(1 - q^2)), True for a NaN q."""
    return ~(q > eps * (1 + np.sqrt(np.maximum(1 - q * q, 0))))  # q may round past 1
