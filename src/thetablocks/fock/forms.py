"""The invariant forms on the Ramond ground strata.

psi_pair is the bilinear pairing of a standard ground wedge against a dual
("opposite Borel") ground wedge: zero unless the index sets match, and the
product of the unit pairings otherwise, normalized so matched wedges entered
in the same index order pair to +1.  psitilde Clifford-multiplies one W_d
vector into the first argument before pairing.
"""

from __future__ import annotations

from .coeff import ZERO, QSqrt2
from .states import FockState, FockVector, clifford_apply


class GroundStratumError(ValueError):
    """A form argument is not in the expected Ramond ground stratum."""


def _ground_labels(state: FockState, dual: bool) -> tuple[tuple, int]:
    """The labels of a ground wedge in ascending order, with the parity of the
    sort.  All modes are zero, so the wedge is strictly ascending in (j, p):
    dual labels (j, p) come sorted, and standard labels (-j, -p) strictly
    descending, which reversing sorts with n(n-1)/2 transpositions."""
    if state.dual != dual or not state.is_ground():
        raise GroundStratumError(f"state outside the ground stratum: {state}")
    if dual:
        return tuple((j, p) for _, j, p in state.wedge), 1
    n = len(state.wedge)
    labels = tuple((-j, -p) for _, j, p in reversed(state.wedge))
    return labels, -1 if (n * (n - 1) // 2) & 1 else 1


def psi_pair(v: FockVector, w: FockVector) -> QSqrt2:
    """<Psi| 1 (x) v (x) w>: the invariant pairing of ground wedges."""
    out = ZERO
    wlabels = [(_ground_labels(s, True), c) for s, c in w.terms.items()]
    for sv, cv in v.terms.items():
        (lab1, sg1) = _ground_labels(sv, False)
        for (lab2, sg2), cw in wlabels:
            if lab1 == lab2:
                out = out + cv * cw * (sg1 * sg2)
    return out


def psitilde(a: FockVector, v: FockVector, w: FockVector) -> QSqrt2:
    """<Psi~| a (x) v (x) w>: Clifford-multiply the W_d vector carried by the
    NS single-generator states of a into v, then pair with w."""
    out = ZERO
    for sa, ca in a.terms.items():
        if sa.degree != 1 or sa.wedge[0][0] != -1:
            raise GroundStratumError(
                f"first slot must be a single mode -1/2 generator, got {sa}"
            )
        _, j, p = sa.wedge[0]
        out = out + ca * psi_pair(clifford_apply((0, j, p), v), w)
    return out
