"""The one table of canonical maps and the pairwise image check.

The hand-written tables that `canonical_beta` and `canonical_maps` replaced
are kept here as the reference: the canonical maps, systems and triples must
be bit-identical to them.
"""

import re

import numpy as np
import pytest

from refs import GRID
from spsys2d.classify import canonical_triple
from spsys2d.graded import check_image_condition
from spsys2d.plane import TripleClass, canonical_beta, canonical_maps
from spsys2d.stacks import degree_index
from spsys2d.systems import SystemLabel, canonical_system, dualize, random_system
from spsys2d.tensorlinalg import I2, Subspace, kron

LAMBDAS = (0.25, -1, 1j, 2 + 1j, 4, 1 - 1j, 1e-3, 1e3)
LABELS = [SystemLabel(x) for x in ("E1", "E2", "E4", "E5")] + [
    SystemLabel("E3", lam) for lam in LAMBDAS
]
# the labels of the table test: the benchmark grid, LABELS, and E3 at a real
# lambda given as an int and as a float
TABLE_LABELS = list(GRID) + LABELS[4:] + [SystemLabel("E3", 3), SystemLabel("E3", -0.5)]


def _triple_class(label):
    return TripleClass("C" + label.label[1], label.lam)


# --- reference: the separate system and triple tables ------------------------

def ref_canonical_beta(c, s):
    """canonical_beta as it was: one 4x2 map filled entry by entry."""
    b = np.zeros((4, 2), dtype=complex)
    if c.label == "C2" and s % 2:
        b[1, 0] = 1
        b[2, 1] = 1
        return b
    b[0, 0] = 1
    if c.label in ("C1", "C2"):
        b[3, 1] = 1
    elif c.label == "C3":
        b[2, 1] = 1
        b[1, 1] = c.lam ** s
    elif c.label == "C4":
        b[2, 1] = 1
    else:
        b[1, 1] = 1
    return b


def ref_canonical_triple(c):
    e1, e2 = I2[:, 0], I2[:, 1]
    lam = c.lam
    if c.label == "C1":
        v2 = [kron(e1, e1), kron(e2, e2)]
        v3 = [kron(kron(e1, e1), e1), kron(kron(e2, e2), e2)]
    elif c.label == "C2":
        v2 = [kron(e1, e2), kron(e2, e1)]
        v3 = [kron(kron(e1, e2), e1), kron(kron(e2, e1), e2)]
    elif c.label == "C3":
        v2 = [kron(e1, e1), kron(e2, e1) + lam * kron(e1, e2)]
        v3 = [
            kron(kron(e1, e1), e1),
            kron(kron(e2, e1), e1)
            + lam * kron(kron(e1, e2), e1)
            + lam**2 * kron(kron(e1, e1), e2),
        ]
    elif c.label == "C4":
        v2 = [kron(e1, e1), kron(e2, e1)]
        v3 = [kron(kron(e1, e1), e1), kron(kron(e2, e1), e1)]
    else:
        v2 = [kron(e1, e1), kron(e1, e2)]
        v3 = [kron(kron(e1, e1), e1), kron(kron(e1, e1), e2)]
    return (Subspace.from_spanning(np.column_stack(v2)).basis,
            Subspace.from_spanning(np.column_stack(v3)).basis)


@pytest.mark.parametrize("label", TABLE_LABELS, ids=str)
def test_the_canonical_maps_are_the_per_degree_table_bit_for_bit(label):
    """`canonical_maps` (read-only, one map per degree), `canonical_beta` and
    the stack of `canonical_system`, gathered from the maps by degree and
    keyed by the pairs in order, against the table filled entry by entry."""
    c = _triple_class(label)
    for h in (3, 6, 7, 12, 64):
        want = np.stack([ref_canonical_beta(c, s) for s in range(1, h)])
        maps = canonical_maps(c, h)
        assert maps.shape == (h - 1, 4, 2) and not maps.flags.writeable
        assert maps.tobytes() == want.tobytes(), h
        for s in range(1, h):
            assert canonical_beta(c, s).tobytes() == want[s - 1].tobytes(), (h, s)
        idx = degree_index(h)
        sys = canonical_system(label, h)
        assert list(sys.beta) == list(idx.pairs)
        assert sys.stack.tobytes() == want[idx.levels[:, 0] - 1].tobytes(), h


@pytest.mark.parametrize("lam", [4, 4.0, 4 + 0j])
def test_the_canonical_filler_keeps_the_overflow(lam):
    c = TripleClass("C3", lam)
    with pytest.raises(OverflowError) as want:
        [ref_canonical_beta(c, s) for s in range(1, 600)]
    with pytest.raises(OverflowError, match=f"^{re.escape(str(want.value))}$"):
        canonical_maps(c, 600)


@pytest.mark.parametrize("label", LABELS, ids=str)
def test_canonical_triples_are_bit_identical_to_the_separate_table(label):
    c = _triple_class(label)
    t = canonical_triple(c)
    want_e2, want_e3 = ref_canonical_triple(c)
    assert np.array_equal(t.E2.basis, want_e2)
    assert np.array_equal(t.E3.basis, want_e3)


def test_image_condition_holds_where_the_iterated_carry_lost_rank():
    # a valid system: its dual satisfies the image condition, which the float
    # carry of the 2 x 2^n iterated products once refused
    g = dualize(random_system(SystemLabel("E3", 3.0), 502, 16))
    assert check_image_condition(g)
