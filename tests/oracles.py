"""Oracles for Phi that the library does not run: Buzen's box recursion and
a vectorized brute-force table.  They stay independent of the frontier
pass, beside the tests that use them."""

import math

import numpy as np
from scipy.special import gammaln

from switchnet.model import CapacityPolytope, CapExceededError, as_integers

# caps guarding pathological inputs; generous for every shipped example
_MAX_TABLE_CELLS = 50_000_000


def norm_const_table(polytope: CapacityPolytope, shape) -> np.ndarray:
    """Phi over an entire box of queue vectors by Buzen's convolution
    recursion (Buzen 1973).

    Pool l's generating function is 1 / (1 - sum_j A_lj x_j), so with G_0
    the unit table at Q = 0 and G_l the product over the first l pools,
    G_l(Q) = G_{l-1}(Q) + sum_j A_lj G_l(Q - e_j).  Each pool fills its
    table one level of sum_{j in pool} Q_j at a time.  ``shape[j]`` is the
    number of values (Q_j from 0 to shape[j]-1).  Linear scale, intended
    for small verification boxes.
    """
    A = polytope.matrix
    J = A.shape[1]
    shape = tuple(as_integers(shape, "table shape").tolist())
    if len(shape) != J:
        raise ValueError("shape must give one extent per queue")
    size = int(np.prod(shape, dtype=np.int64))
    if size > _MAX_TABLE_CELLS:
        raise CapExceededError("verification box too large")
    index = [g.ravel() for g in np.indices(shape)]
    stride = [int(np.prod(shape[j + 1:], dtype=np.int64)) for j in range(J)]
    table = np.zeros(size)
    table[0] = 1.0
    for l in range(A.shape[0]):
        members = [j for j in range(J) if A[l, j] > 0 and shape[j] > 1]
        if not members:
            continue
        level = sum(index[j] for j in members)
        for k in range(1, int(level.max()) + 1):
            cells = np.flatnonzero(level == k)
            for j in members:
                c = cells[index[j][cells] > 0]
                table[c] += A[l, j] * table[c - stride[j]]
    return table.reshape(shape)


def norm_const_bruteforce_table(polytope: CapacityPolytope, total_cap: int) -> np.ndarray:
    """Brute-force Phi for every Q with sum(Q) <= total_cap, vectorized.

    Same direct enumeration of pool occupancies as ``norm_const_bruteforce``
    (every admissible m is generated and its weight accumulated at its
    aggregate Q); batching over all Q at once just avoids Python loops.
    Entries with sum(Q) > total_cap are not populated.
    """
    A = polytope.matrix
    L, J = A.shape
    slots = [(l, j) for l in range(L) for j in range(J) if A[l, j] > 0]
    if (total_cap + 1) ** J > _MAX_TABLE_CELLS:
        raise CapExceededError("brute-force table too large")
    # enumerate all occupancy vectors over the slots with total <= cap
    rows = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for _ in slots:
        counts = total_cap - sums + 1
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        col = np.arange(counts.sum(), dtype=np.int64) - offsets
        rows = np.repeat(rows, counts, axis=0)
        rows = np.concatenate([rows, col[:, None]], axis=1)
        sums = np.repeat(sums, counts) + col
    logw = np.zeros(len(rows))
    for t, (l, j) in enumerate(slots):
        c = rows[:, t].astype(float)
        logw += c * math.log(A[l, j]) - gammaln(c + 1.0)
    for l in range(L):
        cols = [t for t, (pl, _) in enumerate(slots) if pl == l]
        if cols:
            m_l = rows[:, cols].sum(axis=1).astype(float)
            logw += gammaln(m_l + 1.0)
    w = np.exp(logw)
    qmat = np.zeros((len(rows), J), dtype=np.int64)
    for t, (_, j) in enumerate(slots):
        qmat[:, j] += rows[:, t]
    shape = (total_cap + 1,) * J
    flat = np.ravel_multi_index([qmat[:, j] for j in range(J)], shape)
    table = np.bincount(flat, weights=w, minlength=int(np.prod(shape))).reshape(shape)
    return table
