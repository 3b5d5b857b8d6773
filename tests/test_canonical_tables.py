"""The one table of canonical maps and the pairwise image check.

The hand-written tables that `canonical_beta` replaced are kept here as the
reference: the canonical systems and triples must be bit-identical to them.
"""

import numpy as np
import pytest

from spsys2d.classify import TripleClass, canonical_triple
from spsys2d.graded import check_image_condition
from spsys2d.systems import SystemLabel, canonical_system, dualize, random_system
from spsys2d.tensorlinalg import I2, Subspace, kron

LAMBDAS = (0.25, -1, 1j, 2 + 1j, 4, 1 - 1j, 1e-3, 1e3)
LABELS = [SystemLabel(x) for x in ("E1", "E2", "E4", "E5")] + [
    SystemLabel("E3", lam) for lam in LAMBDAS
]


# --- reference: the separate system and triple tables ------------------------

def ref_canonical_beta(label, s):
    b = np.zeros((4, 2), dtype=complex)
    name = label.label
    if name == "E1":
        b[0, 0] = 1
        b[3, 1] = 1
    elif name == "E2":
        if s % 2 == 0:
            b[0, 0] = 1
            b[3, 1] = 1
        else:
            b[1, 0] = 1
            b[2, 1] = 1
    elif name == "E3":
        b[0, 0] = 1
        b[2, 1] = 1
        b[1, 1] = label.lam ** s
    elif name == "E4":
        b[0, 0] = 1
        b[2, 1] = 1
    else:
        b[0, 0] = 1
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


@pytest.mark.parametrize("label", LABELS, ids=str)
def test_canonical_tables_are_bit_identical_to_the_separate_tables(label):
    for h in (3, 6, 12):
        beta = canonical_system(label, h).beta
        assert set(beta) == {(s, t) for s in range(1, h) for t in range(1, h - s + 1)}
        for (s, t), b in beta.items():
            assert np.array_equal(b, ref_canonical_beta(label, s)), (h, s, t)
    c = TripleClass("C" + label.label[1], label.lam)
    t = canonical_triple(c)
    want_e2, want_e3 = ref_canonical_triple(c)
    assert np.array_equal(t.E2.basis, want_e2)
    assert np.array_equal(t.E3.basis, want_e3)


def test_image_condition_holds_where_the_iterated_carry_lost_rank():
    # a valid system: its dual satisfies the image condition, which the float
    # carry of the 2 x 2^n iterated products once refused
    g = dualize(random_system(SystemLabel("E3", 3.0), 502, 16))
    assert check_image_condition(g)
