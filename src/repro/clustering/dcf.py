"""Distributional Cluster Features (paper Section 5.2 and 6.2).

A ``DCF`` is the sufficient statistic of a cluster: the pair
``(p(c), p(T|c))``.  Merging two DCFs follows Equations 1-2, and the distance
between two DCFs is the information loss ``delta_I`` of Equation 3.

The ``ADCF`` extension for attribute-value clustering additionally carries
the cluster's row of matrix ``O`` (per-attribute support counts), which is
additive under merges.

Representation note: internally a DCF stores *joint* masses
``m_k = p(c) * p(k|c)`` plus the cached sum ``S = sum m_k ln m_k``.  Under
this representation merging is additive and both the merge and the
information-loss computation touch only the support of the *smaller*
operand -- which is what makes streaming 10^4-10^5 objects through the
DCF-tree tractable (absorbing a 13-value tuple into a summary covering half
the data set costs 13 updates, not a scan of the summary).  The identities:

    w * H(p(T|c))     = (w ln w - S) / ln 2                     (bits)
    delta_I(a, b)*ln2 = w ln w - w_a ln w_a - w_b ln w_b
                        + S_b - sum_{k in supp(b)} [ (m_ak + m_bk) ln(m_ak + m_bk)
                                                     - m_ak ln m_ak ]
    with w = w_a + w_b (derivable by expanding Eq. 3 with the mixture rule).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

_LOG2 = math.log(2.0)

#: Mantissa bits kept when snapping a ``delta_I`` to the shared loss grid.
LOSS_QUANTUM_BITS = 30

#: Losses below this many bits snap to exactly zero.  Roundoff noise on a
#: mathematically zero ``delta_I`` is summation-order dependent (~1e-14 at
#: worst), and a *relative* grid cannot collapse noise around zero; the
#: absolute floor does, far below any loss the paper's figures resolve.
LOSS_FLOOR = 2.0 ** -40


def quantize_loss(loss: float) -> float:
    """Snap a loss to the shared ``2**-30`` relative grid (floored at zero).

    Both numeric backends (this sparse module and :mod:`repro.kernels`)
    round every ``delta_I`` they emit to this grid.  Mathematically equal
    costs evaluated in different summation orders land on the same float, so
    the deterministic ``(loss, node ids)`` tie-break picks the same merge
    regardless of backend; the perturbation (at most ``2**-31`` relative,
    ~5e-10, plus the :data:`LOSS_FLOOR` around zero) is far below anything
    the paper's figures resolve.
    """
    if loss < LOSS_FLOOR:
        return 0.0
    mantissa, exponent = math.frexp(loss)
    return math.ldexp(
        round(math.ldexp(mantissa, LOSS_QUANTUM_BITS)),
        exponent - LOSS_QUANTUM_BITS,
    )


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


class DCF:
    """Sufficient statistics of a cluster.

    Attributes
    ----------
    weight:
        The cluster prior ``p(c)``.
    mass:
        Sparse joint masses ``{column: p(c) * p(column|c)}``.
    members:
        Indices of the original objects summarized by this cluster.
    support:
        Optional ``O``-matrix row ``{attribute: count}`` (the ADCF of
        Section 6.2); ``None`` for plain DCFs.
    """

    __slots__ = ("weight", "mass", "members", "support", "_mass_log_sum",
                 "_entropy", "_arrays", "_wlogw")

    def __init__(
        self,
        weight: float,
        conditional: Mapping,
        members=(),
        support: Mapping | None = None,
    ):
        if weight <= 0.0:
            raise ValueError("cluster prior must be positive")
        self.weight = float(weight)
        self.mass = {
            column: weight * p for column, p in conditional.items() if p > 0.0
        }
        self.members = list(members)
        self.support = dict(support) if support is not None else None
        self._mass_log_sum = math.fsum(_xlogx(m) for m in self.mass.values())
        self._entropy = None
        self._arrays = None
        self._wlogw = None

    @classmethod
    def singleton(
        cls, index: int, weight: float, conditional: Mapping, support: Mapping | None = None
    ) -> "DCF":
        """The DCF of a single object ``index``."""
        return cls(weight, conditional, members=[index], support=support)

    def copy(self) -> "DCF":
        """An independent copy (mutating it leaves this cluster untouched)."""
        duplicate = DCF.__new__(DCF)
        duplicate.weight = self.weight
        duplicate.mass = dict(self.mass)
        duplicate.members = list(self.members)
        duplicate.support = dict(self.support) if self.support is not None else None
        duplicate._mass_log_sum = self._mass_log_sum
        duplicate._entropy = self._entropy
        duplicate._arrays = self._arrays  # read-only cache, safe to share
        duplicate._wlogw = self._wlogw
        return duplicate

    def __getstate__(self):
        # Exclude the packed-array cache: int64/float64 copies of the mass
        # would double every snapshot, and a restored DCF rebuilds them on
        # first use anyway.
        return (self.weight, self.mass, self.members, self.support,
                self._mass_log_sum, self._entropy)

    def __setstate__(self, state):
        (self.weight, self.mass, self.members, self.support,
         self._mass_log_sum, self._entropy) = state
        self._arrays = None
        self._wlogw = None

    # -- views ---------------------------------------------------------------------

    @property
    def conditional(self) -> dict:
        """The conditional distribution ``p(T|c)`` as a fresh dict."""
        w = self.weight
        return {column: m / w for column, m in self.mass.items()}

    @property
    def size(self) -> int:
        """Number of summarized objects."""
        return len(self.members)

    @property
    def wlogw(self) -> float:
        """Cached ``w ln w`` (invalidated when ``absorb`` changes the prior)."""
        if self._wlogw is None:
            self._wlogw = self.weight * math.log(self.weight)
        return self._wlogw

    def arrays(self):
        """Sorted ``(columns, values)`` of the mass as int64/float64 arrays.

        The gather form the packed kernels consume: ``columns`` ascending so
        lookups can binary-search.  Returns ``None`` when any column key is
        not a plain int (the kernels fall back to dict gathering); either
        answer is cached until the next ``absorb``.
        """
        cached = self._arrays
        if cached is None:
            mass = self.mass
            if all(type(key) is int for key in mass):
                columns = np.fromiter(mass.keys(), dtype=np.int64, count=len(mass))
                values = np.fromiter(mass.values(), dtype=np.float64, count=len(mass))
                order = np.argsort(columns, kind="stable")
                cached = (columns[order], values[order])
            else:
                cached = (None, None)
            self._arrays = cached
        return None if cached[0] is None else cached

    @property
    def mass_log_sum(self) -> float:
        """Cached ``S = sum_k m_k ln m_k`` (maintained additively on merge).

        The per-cluster term both the sparse ``merge_cost`` and the
        :mod:`repro.kernels` row caches build on -- ``H(p(T|c))`` derives
        from it in O(1), so no consumer ever rescans the support.
        """
        return self._mass_log_sum

    def entropy_bits(self) -> float:
        """Entropy (bits) of ``p(T|c)``; computed once and cached until the
        cluster is next mutated by ``absorb``."""
        if self._entropy is None:
            w = self.weight
            self._entropy = (w * math.log(w) - self._mass_log_sum) / (w * _LOG2)
        return self._entropy

    def __repr__(self) -> str:
        return (
            f"DCF(weight={self.weight:.6g}, support_size={len(self.mass)}, "
            f"members={len(self.members)})"
        )

    # -- in-place absorption (the DCF-tree hot path) ---------------------------------

    def absorb(self, other: "DCF") -> None:
        """Merge ``other`` into this cluster in place (Equations 1-2).

        Costs ``O(|supp(other)|)``; used by the DCF-tree so that routing
        summaries can absorb streamed objects without being copied.
        """
        delta = 0.0
        mass = self.mass
        for column, m_other in other.mass.items():
            m_self = mass.get(column, 0.0)
            merged = m_self + m_other
            mass[column] = merged
            delta += _xlogx(merged) - _xlogx(m_self)
        self._mass_log_sum += delta
        self._entropy = None
        self._arrays = None
        self._wlogw = None
        self.weight += other.weight
        self.members.extend(other.members)
        if other.support is not None:
            if self.support is None:
                self.support = dict(other.support)
            else:
                for attribute, count in other.support.items():
                    self.support[attribute] = self.support.get(attribute, 0) + count


def merge_cost(dcf_a: DCF, dcf_b: DCF) -> float:
    """``delta_I(c_a, c_b)`` in bits (Equation 3).

    Touches only the support of the smaller operand (see the module
    docstring for the identity), so summary-vs-object distances are cheap
    regardless of how much data the summary covers.
    """
    if len(dcf_b.mass) > len(dcf_a.mass):
        dcf_a, dcf_b = dcf_b, dcf_a
    w = dcf_a.weight + dcf_b.weight
    mass_a = dcf_a.mass
    overlap = 0.0
    for column, m_b in dcf_b.mass.items():
        m_a = mass_a.get(column, 0.0)
        overlap += _xlogx(m_a + m_b) - _xlogx(m_a)
    loss = (
        w * math.log(w)
        - dcf_a.wlogw
        - dcf_b.wlogw
        + dcf_b._mass_log_sum
        - overlap
    ) / _LOG2
    return quantize_loss(max(loss, 0.0))


def merge(dcf_a: DCF, dcf_b: DCF) -> DCF:
    """The DCF of the merged cluster (Equations 1-2); inputs untouched.

    ``p(c*) = p(a) + p(b)`` and ``p(T|c*)`` is the prior-weighted mixture.
    Member lists concatenate and ADCF support counts add.
    """
    if len(dcf_b.mass) > len(dcf_a.mass):
        dcf_a, dcf_b = dcf_b, dcf_a
    merged = DCF.__new__(DCF)
    merged.weight = dcf_a.weight
    merged.mass = dict(dcf_a.mass)
    merged.members = list(dcf_a.members)
    merged.support = dict(dcf_a.support) if dcf_a.support is not None else None
    merged._mass_log_sum = dcf_a._mass_log_sum
    merged._entropy = None
    merged._arrays = None
    merged._wlogw = None
    merged.absorb(dcf_b)
    return merged


def merge_all(dcfs) -> DCF:
    """Fold a non-empty sequence of DCFs into one cluster."""
    dcfs = list(dcfs)
    if not dcfs:
        raise ValueError("cannot merge an empty collection of DCFs")
    merged = dcfs[0]
    for other in dcfs[1:]:
        merged = merge(merged, other)
    return merged
