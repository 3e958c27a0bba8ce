"""Normalizing constant of the store-forward stationary law.

For a queue vector Q the constant is

    Phi(Q) = sum over pool occupancies m with sum_l m_{lj} = Q_j of
             prod_l multinomial(m_l; m_{lj}) prod_j A_{lj}^{m_{lj}},

with Phi(0) = 1.  The main evaluator convolves pools sequentially, keeping
only the 'frontier' queues that still appear in a later pool, and works on a
max-scaled linear table so that queue vectors in the hundreds stay well
conditioned.  Each pool is one matrix product of the table with the pool's
transfer matrix; a large vector picks the cheapest pool order.  The store-forward rates need Phi(Q - e_j) for every j as
well; ``log_norm_const_neighbours`` gets them from the same single pass by
carrying a leading variant axis, one variant per decremented queue, in the
spirit of Buzen's convolution algorithm (Buzen 1973).
``norm_const_bruteforce`` enumerates the defining sum directly and is kept
deliberately independent of the convolution code path.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammaln

from .model import CapacityPolytope, CapExceededError, as_integers

_NEG_INF = float("-inf")

# cells of one pool step of the frontier pass: its transfer matrix, and its
# table with every variant
_MAX_STEP_CELLS = 8_000_000
# exact-size transfer matrices memoized per master kernel
_MAX_MEMO_ENTRIES = 20_000
# extra extent on every axis of a master kernel rebuilt because a state
# outgrew it
_KERNEL_HEADROOM = 4

# above this total occupancy the convolution is tilted by the proportionally
# fair rates at Q (see _frontier_pass)
_TILT_THRESHOLD = 120


class NormConstCache:
    """Memo from queue-vector tuples to log Phi, bound to one polytope.

    It also keeps what the frontier passes reuse across queue vectors: one
    contraction plan per active set (``plans``) and one master transfer
    kernel per pool split and fixed counts (``kernels``), which every plan
    slices.  Reusing one cache across the states of a network therefore
    reuses its kernels too.  Counters, deterministic for a given sequence of calls: frontier
    passes run, master kernels built, and exact-size matrices left out of a
    full kernel memo."""

    def __init__(self, polytope: CapacityPolytope):
        self.polytope = polytope
        self._log: dict[tuple, float] = {}
        self.plans: dict[tuple, list] = {}
        self.kernels: dict[tuple, list] = {}
        self.passes = 0
        self.kernel_builds = 0
        self.memo_refused = 0

    def check(self, polytope: CapacityPolytope):
        """ValueError unless the cache was built for ``polytope``'s pool matrix."""
        if polytope is not self.polytope and not np.array_equal(polytope.matrix, self.polytope.matrix):
            raise ValueError("the NormConstCache was built for a different pool matrix")

    def lookup(self, key: tuple):
        return self._log.get(key)

    def store(self, key: tuple, value: float):
        self._log[key] = value

    def clear(self):
        """Forget every value, plan and kernel; the counters keep running."""
        self._log.clear()
        self.plans.clear()
        self.kernels.clear()

    def __len__(self) -> int:
        return len(self._log)


def _queue_vector(Q, n_queues: int) -> np.ndarray:
    # negative entries are allowed here: Phi of such a vector is 0 by
    # convention, which callers read off the returned vector
    q = as_integers(Q, "queue vector")
    if q.shape != (n_queues,):
        raise ValueError(f"queue vector has shape {q.shape}, expected ({n_queues},)")
    return q


def _pool_plan(active: tuple, A: np.ndarray, order):
    """Static contraction schedule for one active set, taking the pools in
    ``order`` (pools without an active member are skipped).  Depends only on
    the zero pattern of the pool matrix, so one plan serves every queue
    vector with the same support.

    Per pool, a step holds the split ``(l, banded, contract, fresh, fixed)``
    of its members by frontier role, the table permutation, the axes that
    pass the pool untouched and the table's axes after it, and for a
    neighbour pass the slices that branch each contracted queue's variant
    off the base variant.  Roles: ``banded`` queues are on the frontier and
    reappear in a later pool; ``contract`` queues are on the frontier and
    end here; ``fresh`` queues start here and reappear later; ``fixed``
    queues belong to this pool only, so it serves all of their packets."""
    last_pool = {j: l for l in order for j in active if A[l, j] > 0}
    steps = []
    axes: list[int] = []
    n_var = 1
    for l in order:
        members = [j for j in active if A[l, j] > 0]
        if not members:
            continue
        banded = [j for j in members if j in axes and last_pool[j] != l]
        contract = [j for j in members if j in axes and last_pool[j] == l]
        fresh = [j for j in members if j not in axes and last_pool[j] != l]
        fixed = [j for j in members if j not in axes and last_pool[j] == l]
        pass_axes = [a for a in axes if a not in members]
        # the table's leading axis runs over variants and never moves
        perm = (0,) + tuple(1 + axes.index(a) for a in pass_axes + banded + contract)
        if perm == tuple(range(len(perm))):
            perm = None
        # contracted queue t serves one packet fewer: its variant is the base
        # variant shifted by one along t's axis
        births = []
        lead = (slice(None),) * (len(pass_axes) + len(banded))
        for t in range(len(contract)):
            births.append(((n_var + t,) + lead + (slice(1, None),),
                           (0,) + lead + (slice(None, -1),)))
            lead += (slice(None),)
        n_var += len(contract) + len(fixed)
        axes = pass_axes + banded + fresh
        split = (l, tuple(banded), tuple(contract), tuple(fresh), tuple(fixed))
        steps.append((split, perm, tuple(pass_axes), tuple(axes), tuple(births)))
    assert axes == [], "internal error: unconsumed frontier axes"
    return steps


def _step_dims(plan, q: list, neighbours: bool):
    """Each step's extents for queue vector ``q``, checked against the cap
    before anything is built: None when a step's transfer matrix or its
    table (every variant) would pass ``_MAX_STEP_CELLS``."""
    extent = [v + 1 for v in q].__getitem__
    dims = []
    n_var = 1
    for (_, banded, contract, fresh, fixed), _, pass_axes, axes, _ in plan:
        p = math.prod(map(extent, pass_axes))
        b = math.prod(map(extent, banded))
        c = math.prod(map(extent, contract))
        f = math.prod(map(extent, fresh))
        if neighbours:
            n_var += len(contract) + len(fixed)
        if max(b * b * c * f, n_var * p * b * max(c, f)) > _MAX_STEP_CELLS:
            return None
        dims.append((p, b * c, tuple(map(extent, banded + contract + fresh)),
                     tuple(map(q.__getitem__, fixed)), (-1, *map(extent, axes))))
    return dims


@functools.lru_cache(maxsize=64)
def _order_search(pattern: bytes, L: int, n: int):
    """The extent-free part of the order search for one pool pattern, the
    L x n membership of the active queues in the pools that hold any.
    Subsets of pools taken are numbered by size, then value; the steps into
    the n_k subsets of size k form a k x n_k block, one row per rank of the
    pool taken.  Per step: queue masks of the banded members, the kernel
    grid (all members but the fixed), the table before and the new axes,
    then the subset before and the pool; per subset its size and the
    variant count of a neighbour pass."""
    member = np.frombuffer(pattern, dtype=bool).reshape(L, n)
    pm, qp = member @ (1 << np.arange(n)), member.T @ (1 << np.arange(L))
    size = np.zeros(1 << L, dtype=np.intp)
    for l in range(L):
        size[1 << l: 2 << l] = size[: 1 << l] + 1
    S = np.argsort(size, kind="stable")
    where = np.argsort(S).astype(np.uint16)
    cov, done, n_var = np.zeros((3, 1 << L), dtype=np.int64)
    for l in range(L):
        cov[S >> l & 1 == 1] |= pm[l]
    for i in range(n):
        ended = S & qp[i] == qp[i]
        done |= ended.astype(np.int64) << i
        n_var += ended
    mask_type = np.uint16 if n <= 16 else np.intp
    pm, cov, done = pm.astype(mask_type), cov.astype(mask_type), done.astype(mask_type)
    front = cov & ~done
    lo = np.searchsorted(size[S], np.arange(L + 2))
    levels = []
    for k in range(1, L + 1):
        a, z = lo[k], lo[k + 1]
        pool = np.nonzero(S[a:z, None] >> np.arange(L) & 1)[1].reshape(-1, k).T
        src = where[S[a:z] ^ (1 << pool)]
        mem = pm[pool]
        masks = np.stack([mem & front[src] & ~done[a:z], mem & ~(done[a:z] & ~cov[src]),
                          front[src], mem & front[a:z]])
        levels.append((a, z, masks, src, pool.astype(np.uint8)))
    shared = (size[S], (1 + n_var).astype(np.uint8))
    for arr in shared + tuple(x for level in levels for x in level[2:]):
        arr.setflags(write=False)  # every caller of the memo reads the same arrays
    return (levels,) + shared


def _cheapest_order(active: tuple, A: np.ndarray, q: list, neighbours: bool):
    """The pool order of least modeled cost among those whose steps all fit
    the cap, as pool indices; the listed order when it ties, when none fits,
    or when the search's own arrays (a product table over queue masks and
    eight numbers a step) would pass the cap.  A step costs its transfer
    matrix's cells plus its product's multiply-adds, every variant row
    counted.  An exact dynamic programme over the subsets of pools taken: a
    step's sizes depend only on the subset before it and its pool, and each
    is a product of extents over a queue mask.  A table after a step is the
    table before the next, with no fewer variants: only the one is checked."""
    member = A[:, active] > 0
    pools = np.flatnonzero(member.any(axis=1)).tolist()
    L = len(pools)
    if (1 << len(active)) + (L << (L + 2)) > _MAX_STEP_CELLS:
        return pools
    levels, size, n_var = _order_search(member[pools].tobytes(), L, len(active))
    tab = np.ones(1 << len(active))
    for i, j in enumerate(active):
        tab[1 << i: 2 << i] = tab[: 1 << i] * (q[j] + 1)
    best = np.zeros(1 << L)
    steps = []
    for a, z, masks, src, _ in levels:
        cells = np.take(tab, masks[0]) * np.take(tab, masks[1])
        before = np.take(tab, masks[2]) * (n_var[a:z] if neighbours else 1)
        cost = np.take(tab, masks[3]) * before + cells
        cost[np.maximum(cells, before) > _MAX_STEP_CELLS] = np.inf
        cost += np.take(best, src)
        np.min(cost, axis=0, out=best[a:z])
        if best[a:z].min() == np.inf:
            return pools  # no order fits
        steps.append(cost)
    # back from the full set, taking among tied last steps the latest listed
    # pool: this rebuilds the listed order whenever it is among the cheapest
    order, d = [], len(best) - 1
    while d:
        a, _, _, src, pool = levels[size[d] - 1]
        tied = steps[size[d] - 1][::-1, d - a]
        r = len(tied) - 1 - int(np.argmin(tied))
        order.append(pools[pool[r, d - a]])
        d = int(src[r, d - a])
    return order[::-1]


def _kernel_grid(l, banded, contract, fresh, fixed, sizes, fixedq, A):
    """Pool l's kernel laid out on the grid of its transfer matrix, in
    linear scale relative to its peak, and the peak's log.

    ``sizes`` holds the extents of the banded, contract and fresh members,
    in that order; ``fixedq`` the counts of the fixed members.  Axes run
    over (r_banded, r_contract, v_banded, u_fresh): the running totals of
    the table so far, then the new totals and the fresh counts.  The entry
    is the pool kernel at served counts v - r (zero where negative),
    extent - 1 - r and u: a contracted queue's running total r leaves the
    rest of its packets to this pool.

    The log kernel is sum_t (u_t log A_lt - log u_t!) + log m! at pool
    total m.  Every log-factorial is read from one vector
    ``lf[n] = gammaln(n + 1)``, n up to the largest total, by indexing it
    with the integer count grids.  gammaln runs at the same integer points
    as it would on the grids themselves and the sums keep their order, so
    the kernel has the same bits as that direct evaluation at a fraction
    of its cost; the grid is accumulated in place, a contract axis built
    backwards.  The banded axes are one read-only strided view of a
    zero-padded copy, so the grid costs no more memory than that copy."""
    nb, nc = len(banded), len(contract)
    lf = gammaln(np.arange(sum(fixedq) + sum(sizes) - len(sizes) + 1) + 1.0)
    klog = sum(q * math.log(A[l, j]) - float(lf[q]) for j, q in zip(fixed, fixedq))
    total = sum(fixedq)
    if not sizes:
        klog = klog + lf[total]
        mk = float(klog)
        return np.exp(klog - mk), mk
    # the grid grows one axis at a time and is then updated in place; a
    # contract axis runs backwards
    counts = [np.arange(s)[::-1 if nb <= t < nb + nc else 1] for t, s in enumerate(sizes)]
    for u, j in zip(np.ix_(*counts), banded + contract + fresh):
        total = total + u
        klog = klog + u * math.log(A[l, j])
        klog -= lf[u]
    klog += lf[total]
    del total
    mk = float(np.max(klog))
    klog -= mk
    klin = np.exp(klog, out=klog)
    if nb:
        # extent - 1 zeros in front of each banded axis; the view reads
        # (r, v) at padded index extent - 1 - r + v, served count v - r
        pad = np.zeros([2 * s - 1 for s in sizes[:nb]] + list(sizes[nb:]))
        inner = pad[tuple(slice(s - 1, None) for s in sizes[:nb])]
        inner[...] = klin
        st = pad.strides
        klin = as_strided(inner, sizes[:nb] + sizes[nb:nb + nc] + sizes[:nb] + sizes[nb + nc:],
                          tuple(-x for x in st[:nb]) + st[nb:nb + nc] + st[:nb] + st[nb + nc:],
                          writeable=False)
    return klin, mk


def _grown_extents(old, want, nb):
    """Extents of a master kernel rebuilt because ``want`` outgrew ``old``:
    the larger of the two on every axis plus headroom, or without the
    headroom, or ``want`` alone, whichever first fits the step cap
    (``want`` always does: it passed the pass's up-front check)."""
    wide = tuple(max(o, w) for o, w in zip(old, want))
    roomy = tuple(m + _KERNEL_HEADROOM for m in wide)
    for ext in (roomy, wide):
        if math.prod(ext[:nb]) * math.prod(ext) <= _MAX_STEP_CELLS:
            return ext
    return want


def _transfer_matrix(split, sizes, fixedq, rows, A, cache):
    """Normalized transfer matrix of one pool split, with ``rows`` rows over
    the running totals (r_banded, r_contract) and columns over (v_banded,
    u_fresh) (see ``_kernel_grid``), and its peak log value.

    Without a cache the matrix is built at exactly these extents.  With
    one, it is a slice of the cache's master kernel for this pool split
    and these fixed counts: the master is built at the first extents asked
    for and rebuilt, with headroom, only when an extent outgrows it.  Each
    slice is copied once into the master's exact-size memo.  A master is
    the list [extents, gathered kernel, peak log, memo by extents]."""
    if cache is None:
        klin, mk = _kernel_grid(*split, sizes, fixedq, A)
        return np.ascontiguousarray(klin).reshape(rows, -1), mk
    master = cache.kernels.get((split, fixedq))
    if master is None:
        master = cache.kernels[split, fixedq] = [sizes, None, 0.0, {}]
    ext, klin, mk, exact = master
    entry = exact.get(sizes)
    if entry is not None:
        return entry
    nb, nc = len(split[1]), len(split[2])
    if klin is None or any(s > e for s, e in zip(sizes, ext)):
        ext = sizes if klin is None else _grown_extents(ext, sizes, nb)
        klin, mk = _kernel_grid(*split, ext, fixedq, A)
        master[:3] = ext, klin, mk
        cache.kernel_builds += 1
    # a contracted running total r serves extent - 1 - r: slice from the end
    lead = tuple(slice(s) for s in sizes[:nb])
    cut = (lead + tuple(slice(e - s, None) for s, e in zip(sizes[nb: nb + nc], ext[nb: nb + nc]))
           + lead + tuple(slice(s) for s in sizes[nb + nc:]))
    entry = (np.ascontiguousarray(klin[cut]).reshape(rows, -1), mk)
    if len(exact) < _MAX_MEMO_ENTRIES:
        exact[sizes] = entry
    else:
        cache.memo_refused += 1
    return entry


def _frontier_pass(Q: np.ndarray, polytope: CapacityPolytope, cache: NormConstCache | None,
                   neighbours: bool):
    """log Phi(Q) by sequential pool convolution, one matrix product per pool.

    With ``neighbours`` the table carries a leading variant axis and the pass
    also returns log Phi(Q - e_j) for every j (-inf where Q_j = 0).  Up to
    queue j's last pool the table does not depend on Q_j beyond its extent,
    so the variant for j branches off the base variant there: a contracted
    j serves one packet fewer, which is the base table shifted by one along
    j's axis; a fixed j takes the pool kernel with Q_j - 1 packets."""
    A = polytope.matrix
    q = Q.tolist()
    J = len(q)
    nbr = np.full(J, _NEG_INF) if neighbours else None
    active = tuple(j for j, v in enumerate(q) if v > 0)
    if not active:
        return 0.0, nbr
    plan = cache.plans.get(active) if cache is not None else None
    if plan is None:
        plan = _pool_plan(active, A, range(A.shape[0]))
        if cache is not None:
            cache.plans[active] = plan
    total = sum(q)
    dims = _step_dims(plan, q, neighbours)
    if dims is None or total > _TILT_THRESHOLD and total >= 1 << len(plan):
        # past the cap, or tilted with no more pool subsets than packets
        # (the search grows with one, the pass with the other): the
        # cheapest order that fits, planned afresh like tilted kernels
        plan = _pool_plan(active, A, _cheapest_order(active, A, q, neighbours))
        dims = _step_dims(plan, q, neighbours)
        if dims is None:
            raise CapExceededError(
                "normalizing-constant table too large for this queue vector; reduce the vector")
    if cache is not None:
        cache.passes += 1

    log_z = None
    if total > _TILT_THRESHOLD:
        # A_lj -> A_lj z_j multiplies every term of Phi by prod_j z_j^Q_j,
        # corrected at the end; the fair rates maximize that product over
        # A z <= 1, which keeps the table well scaled for large vectors.  The
        # tilt only conditions the pass: any z > 0 gives the same Phi, so an
        # unconverged solve is used as it is.
        from .propfair import solve_prop_fair  # propfair imports this module

        z = solve_prop_fair(Q, polytope).rates
        z = z / max(float(np.max(A @ z)), 1.0) * (1.0 - 1e-12)
        z[Q == 0] = 1.0
        A = A * z[None, :]
        log_z = np.log(z)
    # coefficients of a tilted pass depend on the state: built, not memoized
    kernels = cache if log_z is None else None

    table = np.ones(1)
    offset = 0.0
    order: list[int] = []  # the queue of each variant after the base
    for (split, perm, _, _, births), (p, rows, sizes, fixedq, shape) in zip(plan, dims):
        M, mk = _transfer_matrix(split, sizes, fixedq, rows, A, kernels)
        if perm is not None:
            table = table.transpose(perm)
        if neighbours and births:
            grown = np.zeros((len(table) + len(births),) + table.shape[1:])
            grown[: len(table)] = table
            for dst, src in births:
                grown[dst] = table[src]
            table = grown
            order += split[2]
        flat = table.reshape(-1, rows)
        del table  # a transposed table was copied into flat
        out = flat @ M
        if neighbours and split[4]:
            extra = [out]
            for t in range(len(fixedq)):
                fq = fixedq[:t] + (fixedq[t] - 1,) + fixedq[t + 1:]
                Mj, mkj = _transfer_matrix(split, sizes, fq, rows, A, kernels)
                extra.append((flat[:p] @ Mj) * math.exp(mkj - mk))
            out = np.concatenate(extra)
            order += split[4]

        offset += mk
        m = float(out.max())
        if m > 1e100 or 0.0 < m < 1e-100:
            out /= m
            offset += math.log(m)
        table = out.reshape(shape)

    with np.errstate(divide="ignore"):
        logs = offset + np.log(table)
    if log_z is not None:
        logs -= float(Q @ log_z)
    if neighbours:
        nbr[order] = logs[1:] + (log_z[order] if log_z is not None else 0.0)
    return float(logs[0]), nbr


def log_norm_const(Q, polytope: CapacityPolytope, cache: NormConstCache | None = None) -> float:
    """log Phi(Q) via sequential pool convolution; -inf if any entry is
    negative (the Phi = 0 convention)."""
    q = _queue_vector(Q, polytope.n_queues)
    key = tuple(q.tolist())
    if min(key) < 0:
        return -math.inf
    if cache is not None:
        cache.check(polytope)
        hit = cache.lookup(key)
        if hit is not None:
            return hit
    val, _ = _frontier_pass(q, polytope, cache, False)
    if cache is not None:
        cache.store(key, val)
    return val


def log_norm_const_neighbours(
    Q, polytope: CapacityPolytope, cache: NormConstCache | None = None
) -> tuple[float, np.ndarray]:
    """log Phi(Q) and the vector of every log Phi(Q - e_j) from one frontier
    pass; entries with Q_j = 0 are -inf (the Phi = 0 convention).  With a
    cache, all J + 1 values are looked up first and stored after."""
    q = _queue_vector(Q, polytope.n_queues)
    key = tuple(q.tolist())
    if min(key) < 0:
        return -math.inf, np.full(len(key), _NEG_INF)
    down = [key[:j] + (v - 1,) + key[j + 1:] if v > 0 else None for j, v in enumerate(key)]
    if cache is not None:
        cache.check(polytope)
        base = cache.lookup(key)
        if base is not None:
            hits = [cache.lookup(k) if k is not None else _NEG_INF for k in down]
            if None not in hits:
                return base, np.array(hits)
    base, nbr = _frontier_pass(q, polytope, cache, True)
    if cache is not None:
        cache.store(key, base)
        for k, v in zip(down, nbr.tolist()):
            if k is not None:
                cache.store(k, v)
    return base, nbr


def norm_const(Q, polytope: CapacityPolytope, cache: NormConstCache | None = None) -> float:
    """Phi(Q) in linear scale (may overflow for very large vectors)."""
    return float(np.exp(log_norm_const(Q, polytope, cache)))


# -------------------- independent brute force --------------------


def _compositions(total: int, parts: int):
    # all nonnegative integer vectors of given length summing to total
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def norm_const_bruteforce(Q, polytope: CapacityPolytope, total_cap: int = 24) -> float:
    """Direct enumeration of the defining sum.  Exact integer multinomials,
    no convolution, no memoization.  Capped at sum(Q) <= total_cap."""
    q = _queue_vector(Q, polytope.n_queues)
    if np.any(q < 0):
        return 0.0
    if int(q.sum()) > total_cap:
        raise CapExceededError(
            f"brute force capped at total occupancy {total_cap}, got {int(q.sum())}"
        )
    A = polytope.matrix
    L = A.shape[0]
    pools_of = [np.flatnonzero(A[:, j] > 0).tolist() for j in range(len(q))]
    queues = [j for j in range(len(q)) if q[j] > 0]
    for j in queues:
        if not pools_of[j]:
            return 0.0
    split_choices = [list(_compositions(int(q[j]), len(pools_of[j]))) for j in queues]
    total = 0.0
    for combo in itertools.product(*split_choices):
        m = [dict() for _ in range(L)]
        for j, split in zip(queues, combo):
            for l, cnt in zip(pools_of[j], split):
                if cnt:
                    m[l][j] = cnt
        term = 1.0
        for l in range(L):
            if not m[l]:
                continue
            mult = 1
            running = 0
            for j, cnt in m[l].items():
                running += cnt
                mult *= math.comb(running, cnt)
            term *= float(mult)
            for j, cnt in m[l].items():
                term *= A[l, j] ** cnt
        total += term
    return total
