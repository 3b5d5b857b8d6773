"""Two-dimensional algebras D1..D7, graded algebras built from (D, eta),
automorphism twists, the kernel/image conditions, and morphism extension.

A 2-dim algebra is a 2x4 structure-constant matrix sending coordinates of
x (x) y to coordinates of xy.  A graded algebra stores its multiplication
maps M[s, t] (2x4 each) up to a finite horizon.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .tensorlinalg import (
    DEFAULT_EPS, I2, Subspace, _masked_null_spaces, _null_space, as_cmat, kron, matmul2,
    rank_deficient, require_finite, residual_tol, span_rank,
)

# Per-triple checks (O(h^3) of them; pair stacks are not chunked) run over at
# most CHUNK triples at a time: as `matmul2` contractions in the coassociativity
# check, as stacked SVDs in the kernel check.  Sized by measurement: 256 keeps
# the peak of `check_axioms` under 1 MiB at h = 64 (the kernel check peaks at
# ~2.4 MiB at h = 32), while each array operation spans enough triples to
# amortise its fixed cost.
CHUNK = 256

CATALOG_NAMES = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

# columns indexed by (i, j) -> 2(i-1) + (j-1): e1e1, e1e2, e2e1, e2e2
_CATALOG_TABLES = {
    "D1": [[1, 0, 0, 0], [0, 0, 0, 1]],  # (a1 b1, a2 b2)
    "D2": [[1, 0, 0, 0], [0, 1, 1, 0]],  # (a1 b1, a2 b1 + a1 b2)
    "D3": [[1, 0, 0, 0], [0, 0, 1, 0]],  # (a1 b1, a2 b1)
    "D4": [[1, 0, 0, 0], [0, 1, 0, 0]],  # (a1 b1, a1 b2)
    "D5": [[1, 0, 0, 0], [0, 0, 0, 0]],  # (a1 b1, 0)
    "D6": [[0, 0, 0, 0], [1, 0, 0, 0]],  # (0, a1 b1)
    "D7": [[0, 0, 0, 0], [0, 0, 0, 0]],  # (0, 0)
}


class NotAutomorphismError(ValueError):
    pass


class MorphismError(ValueError):
    pass


class NotExtendableError(MorphismError):
    pass


@dataclass(frozen=True, eq=False)
class Algebra2:
    """A two-dimensional algebra given by its structure constants."""

    mult: np.ndarray = field(repr=False)
    name: str | None = None

    def __post_init__(self):
        m = as_cmat(self.mult)
        if m.shape != (2, 4):
            raise ValueError("structure constants must form a 2x4 matrix")
        object.__setattr__(self, "mult", m)


def catalog(name: str) -> Algebra2:
    """The seven two-dimensional algebras; D1..D4 have surjective
    multiplication, D5..D7 do not."""
    if name not in _CATALOG_TABLES:
        raise ValueError(f"unknown catalog algebra {name!r}")
    return Algebra2(mult=np.array(_CATALOG_TABLES[name], dtype=complex), name=name)


def check_surjective_mult(d: Algebra2, eps: float = DEFAULT_EPS) -> bool:
    return bool(span_rank(np.linalg.svd(d.mult, compute_uv=False), eps) == 2)


def is_automorphism(d: Algebra2, m, eps: float = DEFAULT_EPS) -> bool:
    """True iff m is invertible and multiplicative for d."""
    m = as_cmat(m)
    if m.shape != (2, 2):
        return False
    s = np.linalg.svd(m, compute_uv=False)
    if rank_deficient(s, eps):
        return False
    residual = np.abs(d.mult @ kron(m, m) - m @ d.mult).max()
    return bool(residual <= eps * max(1.0, float(s[0]) ** 2))


_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class AutomorphismFamily:
    """Closed-form description of an algebra's automorphism group.

    `maps` lists the isolated automorphisms; `one_parameter` (for D2) maps a
    nonzero scalar to the member of the continuous family.
    """

    algebra: str
    maps: tuple
    one_parameter: object | None = None
    description: str = ""


def automorphism_description(name: str) -> AutomorphismFamily:
    if name == "D1":
        return AutomorphismFamily("D1", (I2.copy(), _SWAP.copy()),
                                  description="identity and the coordinate swap")
    if name == "D2":
        return AutomorphismFamily("D2", (I2.copy(),),
                                  lambda lam: np.array([[1, 0], [0, lam]], dtype=complex),
                                  "(a1, a2) -> (a1, lam a2) for nonzero lam")
    if name in ("D3", "D4"):
        return AutomorphismFamily(name, (I2.copy(),), description="identity only")
    raise ValueError(f"automorphism description only covers D1..D4, not {name!r}")


@dataclass(frozen=True, eq=False)
class DegreeIndex:
    """The degree pairs (s, t) with s + t <= horizon and triples (r, s, t)
    with r + s + t <= horizon, in nested-loop order.

    `positions` maps each pair to its position in `pairs`; `levels` holds the
    (s, t) of each pair as an array, and `sides` the positions s - 1, t - 1
    and s + t - 1 of theta_s, theta_t and theta_{s+t} in a stack of level
    maps theta_1..theta_h; `rs`, `rs_t`, `st` and `r_st` hold, for each
    triple, the positions in `pairs` of (r, s), (r + s, t), (s, t) and
    (r, s + t), to gather stacked per-pair maps.
    """

    pairs: tuple
    triples: tuple
    positions: dict = field(repr=False)
    levels: np.ndarray = field(repr=False)
    sides: np.ndarray = field(repr=False)
    rs: np.ndarray = field(repr=False)
    rs_t: np.ndarray = field(repr=False)
    st: np.ndarray = field(repr=False)
    r_st: np.ndarray = field(repr=False)


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
    second, so neither Kronecker product is formed."""
    out = np.empty(len(idx.triples))
    for sl in _chunks(len(idx.triples)):
        b, c = maps[idx.rs[sl]], maps[idx.rs_t[sl]]
        left = matmul2(b, c.reshape(-1, 2, 4)).reshape(-1, 8, 2)
        b, c = maps[idx.st[sl]], maps[idx.r_st[sl]]
        right = matmul2(b[:, None], c.reshape(-1, 2, 2, 2)).reshape(-1, 8, 2)
        out[sl] = pair_max(np.abs(left - right))
    return out


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """Multiplication maps M[s, t]: 2x4 matrices for s + t <= horizon.

    Built from a dict of the maps keyed by (s, t), or from their (P, 2, 4)
    stack in `degree_index(horizon).pairs` order (`checked_maps`).  `stack`
    holds every map, read-only; `M` is a read-only mapping whose M[s, t] is a
    view into it.  A copy or unpickled instance is rebuilt from the stack."""

    horizon: int
    M: dict = field(repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack, maps = checked_maps(self.horizon, self.M, "M", (2, 4), "multiplication map")
        object.__setattr__(self, "M", maps)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.horizon, self.stack)

    def associativity_residual(self) -> float:
        # the defect of M is that of its transpose, the dual system's beta
        residuals = triple_residuals(self.stack.transpose(0, 2, 1), degree_index(self.horizon))
        return float(np.fmax.reduce(residuals, initial=0.0))


def build_graded(d: Algebra2, eta, horizon: int, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The graded algebra with product x *_B y = x *_D eta^s(y)."""
    eta = as_cmat(eta)
    if not is_automorphism(d, eta, eps):
        raise NotAutomorphismError("eta is not an automorphism of the algebra")
    powers = list(itertools.accumulate([I2] + [eta] * (horizon - 1), np.matmul))[1:]
    # M[s, t] = D (I2 (x) eta^s) for every t: the h - 1 distinct maps, gathered
    maps = d.mult @ kron(I2, np.stack(powers))
    g = GradedAlgebra(horizon, maps[degree_index(horizon).sides[:, 0]])
    residual = g.associativity_residual()
    if residual > eps * 100:
        raise MorphismError(f"construction produced associativity residual {residual}")
    return g


def twist(g: GradedAlgebra, f, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The twisted algebra with product (x, y) -> x f_t^s(y); `f` gives f_t
    as a callable or a mapping of t (ValueError naming its first missing
    level).  f_t^s is one stacked matrix power per exponent s."""
    h = g.horizon
    m = GradedMorphism(g, g, np.array([f(t) for t in range(1, h + 1)]) if callable(f) else f)
    levels = m.stack[:h]
    singular = np.flatnonzero(singular_levels(levels, eps))
    if singular.size:
        raise NotAutomorphismError(f"level-{singular[0] + 1} map is not invertible")
    residual = np.max(list(m.level_residuals().values()))  # a NaN propagates
    if not residual <= residual_tol(eps):
        raise NotAutomorphismError(f"per-level family is not multiplicative (residual {residual})")
    # pairs order runs t = 1..h - s for each s in turn
    powers = np.concatenate([np.linalg.matrix_power(levels[:h - s], s) for s in range(1, h)])
    return GradedAlgebra(h, g.stack @ kron(I2, powers))


def check_image_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """All M[s, t] surjective, and hence every iterated product P_n too.

    P_n = M[n-1, 1] (P_{n-1} (x) I2) is a composite of surjections once
    P_{n-1} is one, so the pairwise test decides the condition and the
    2 x 2^n products are never formed: the injectivity test of `check_axioms`
    on the dual system, one stacked SVD.
    """
    return not rank_deficient(np.linalg.svd(g.stack, compute_uv=False), eps).any()


def kernel_subspace(m: np.ndarray, eps: float = DEFAULT_EPS) -> Subspace:
    m = as_cmat(m)
    return Subspace(m.shape[1], _null_space(m, eps))


def _masked_spans(m: np.ndarray, eps: float):
    """Spans of a (T, n, k) stack, k >= n, as (T, n, n) bases and (T, n)
    column masks: the columns that `Subspace.from_spanning` keeps, in place,
    the rest zero."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = np.arange(m.shape[-2]) < span_rank(s, eps)[:, None]
    return u * keep[:, None, :], keep


def check_kernel_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """Ker M[r, s, t] equals the sum of the two partial kernels, for all triples.

    The one-sided containment (partial kernels inside the triple kernel) is a
    structural fact and is asserted unconditionally as a sanity check.  The
    triples are checked in `degree_index` order: the first one whose kernels
    leak or differ decides (RuntimeError for a leak, False otherwise).
    """
    tol = residual_tol(eps)
    idx = degree_index(g.horizon)
    maps = g.stack
    pair_kernels, _ = _masked_null_spaces(maps, eps)
    for sl in _chunks(len(idx.triples)):
        rs, st = idx.rs[sl], idx.st[sl]
        m3 = maps[idx.rs_t[sl]] @ kron(maps[rs], I2)  # M[r, s, t], (T, 2, 8)
        k3, k3_keep = _masked_null_spaces(m3, eps)
        side, side_keep = _masked_spans(np.concatenate(
            [kron(pair_kernels[rs], I2), kron(I2, pair_kernels[st])], axis=2), eps)
        leak = pair_max(np.abs(m3 @ side))
        leaks = leak > tol * np.maximum(1.0, pair_max(np.abs(m3)))
        distance = pair_max(np.abs(k3 @ k3.conj().transpose(0, 2, 1)
                                   - side @ side.conj().transpose(0, 2, 1)))
        unequal = (k3_keep.sum(1) != side_keep.sum(1)) | (distance > tol)
        bad = np.flatnonzero(leaks | unequal)
        if bad.size:
            if leaks[bad[0]]:
                raise RuntimeError("partial kernels escape the triple kernel; "
                                   "the graded data is inconsistent")
            return False
    return True


def intertwining(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Both sides of (theta_s (x) theta_t) src[s, t] = dst[s, t] theta_{s+t},
    stacked in pairs order, for the (h, 2, 2) stack theta and two systems'
    (P, 4, 2) stacks.  A graded morphism is this relation on the transposes.
    (theta_s (x) theta_t) X is formed as (theta_s (x) I2)((I2 (x) theta_t) X);
    theta_s, theta_t and theta_{s+t} of every pair come from one gather."""
    theta_s, theta_t, theta_st = theta[degree_index(len(theta)).sides.T]
    inner = matmul2(theta_t[:, None], src.reshape(-1, 2, 2, 2))
    lhs = matmul2(theta_s, inner.reshape(-1, 2, 4)).reshape(-1, 4, 2)
    return lhs, matmul2(dst, theta_st)


def intertwining_defects(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """(defects, residuals) for the (h, 2, 2) stack theta and two systems'
    (P, 4, 2) stacks, in pairs order: the (P, 4, 2) stack |lhs - rhs| of
    `intertwining`, and the relative residual of each pair, its largest
    defect scaled by max(1, the largest |entry| of either side).  The one
    residual rule of `systems.iso_residuals`, `classify_system` and
    `extend_morphism`."""
    lhs, rhs = intertwining(theta, src, dst)
    scale = np.maximum(1.0, pair_max(np.maximum(np.abs(lhs), np.abs(rhs))))
    defects = np.abs(lhs - rhs)
    return defects, pair_max(defects) / scale


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


@dataclass(frozen=True, eq=False)
class GradedMorphism:
    """Per-level maps theta[t] of a morphism between two graded algebras, kept
    as a `SystemIso` keeps them (`checked_levels`).  MorphismError when the
    horizons differ, or naming the first level up to the horizon with no map.
    A copy or unpickled instance is rebuilt from the stack."""

    source: GradedAlgebra = field(repr=False)
    target: GradedAlgebra = field(repr=False)
    theta: dict = field(repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.source.horizon != self.target.horizon:
            raise MorphismError("source and target horizons differ")
        stack, theta = checked_levels(self.theta)
        if len(stack) < self.source.horizon:
            raise MorphismError(f"missing level map {len(stack) + 1}")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "theta", theta)

    def __reduce__(self):
        return type(self), (self.source, self.target, self.stack)

    def level_residuals(self) -> dict:
        """Per-pair absolute max |theta_{s+t} M_A - M_B (theta_s (x) theta_t)|:
        the defects of `intertwining_defects` on the transposes, reduced once."""
        h = self.source.horizon
        defects = intertwining_defects(self.stack[:h].transpose(0, 2, 1),
                                       self.target.stack.transpose(0, 2, 1),
                                       self.source.stack.transpose(0, 2, 1))[0]
        return dict(zip(degree_index(h).pairs, pair_max(defects).tolist()))


def singular_levels(levels: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per level of an (h, 2, 2) stack, True where the map has lost rank once
    each row is scaled to unit norm (row equilibration, van der Sluis 1969):
    s1 <= eps * s0, so scaling a row of a level does not move its decision
    (by a power of two, not by one bit).  Unit rows give s0^2 + s1^2 = 2 and
    s0 * s1 = q, the |det| of the scaled map (`equilibrated_levels`), so the
    test is `rank_lost(q, eps)`.  A zero or non-finite row is singular."""
    return rank_lost(equilibrated_levels(levels)[1], eps)


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


def is_isomorphism(m: GradedMorphism, eps: float = DEFAULT_EPS) -> bool:
    """True unless some level map theta[1..horizon] has lost rank."""
    return not singular_levels(m.stack[:m.source.horizon], eps).any()


def extend_morphism(gA: GradedAlgebra, gB: GradedAlgebra, theta1, theta2,
                    eps: float = DEFAULT_EPS, rng=None) -> GradedMorphism:
    """Extend (theta1, theta2) to a full graded morphism gA -> gB.

    Requires gA to satisfy the image and kernel conditions; theta2 is only
    checked.  theta_n M_A[1, n-1] = M_B[1, n-1] (theta_1 (x) theta_{n-1}),
    transposed, is `extend_levels` from the dual of gB onto that of gA.  Right
    inverses default to the minimum-norm choice, or are randomized with `rng`
    (the result is the same either way, which is tested).  The result is
    certified on every pair by the rule of `intertwining_defects`.
    """
    if gA.horizon != gB.horizon:
        raise MorphismError("source and target horizons differ")
    theta1, theta2 = as_cmat(theta1), as_cmat(theta2)
    if theta1.shape != (2, 2) or theta2.shape != (2, 2):
        raise MorphismError("theta1 and theta2 must be 2x2")
    if not check_image_condition(gA, eps):
        raise MorphismError("source algebra fails the image condition")
    if not check_kernel_condition(gA, eps):
        raise MorphismError("source algebra fails the kernel condition")
    compat = np.abs(theta2 @ gA.stack[0] - gB.stack[0] @ kron(theta1, theta1)).max()
    if not compat <= residual_tol(eps):  # a NaN residual fails
        raise MorphismError(f"theta2 is incompatible with theta1 (residual {compat})")

    # M[1, t] for t = 1..h-1: the pairs (1, t) lead degree_index order
    ma, mb = gA.stack[:gA.horizon - 1], gB.stack[:gA.horizon - 1]
    pre = np.linalg.pinv(ma)
    kernel, _ = _masked_null_spaces(ma, eps)
    if rng is not None:
        pre = pre + kernel @ (rng.standard_normal(pre.shape)
                              + 1j * rng.standard_normal(pre.shape))
    theta = extend_levels(theta1.T, pre.transpose(0, 2, 1),
                          mb.transpose(0, 2, 1)).transpose(0, 2, 1)
    # theta_n, n >= 3, is well defined if its rhs vanishes on Ker M_A[1, n-1]
    rhs = mb[1:] @ kron(theta1, theta[1:-1])
    leak = pair_max(np.abs(rhs @ kernel[1:]))
    bad = np.flatnonzero(~(leak <= residual_tol(eps) * np.maximum(1.0, pair_max(np.abs(rhs)))))
    if bad.size:
        raise NotExtendableError(
            f"theta_{bad[0] + 3} is not well defined (kernel leak {leak[bad[0]]})")
    # the recursion reads only the pairs (1, t); certify every pair, as the
    # system iso theta^T from the dual of gB onto the dual of gA
    worst = intertwining_defects(theta.transpose(0, 2, 1), gB.stack.transpose(0, 2, 1),
                                 gA.stack.transpose(0, 2, 1))[1].max()
    if not worst <= residual_tol(eps):
        raise MorphismError(f"level maps fail to intertwine (residual {worst:.3g})")
    return GradedMorphism(gA, gB, theta)
