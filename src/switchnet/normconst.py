"""Normalizing constant of the store-forward stationary law.

For a queue vector Q the constant is

    Phi(Q) = sum over pool occupancies m with sum_l m_{lj} = Q_j of
             prod_l multinomial(m_l; m_{lj}) prod_j A_{lj}^{m_{lj}},

with Phi(0) = 1.  The main evaluator convolves pools sequentially, keeping
only the 'frontier' queues that still appear in a later pool, and works on a
max-scaled linear table so that queue vectors in the hundreds stay well
conditioned.  Each pool is one matrix product of the table with the pool's
transfer matrix.  The store-forward rates need Phi(Q - e_j) for every j as
well; ``log_norm_const_neighbours`` gets them from the same single pass by
carrying a leading variant axis, one variant per decremented queue, in the
spirit of Buzen's convolution algorithm (Buzen 1973).
``norm_const_bruteforce`` enumerates the defining sum directly and is kept
deliberately independent of the convolution code path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln

from .model import CapacityPolytope, CapExceededError

_NEG_INF = float("-inf")

# caps guarding pathological inputs; generous for every shipped example
_MAX_TABLE_CELLS = 50_000_000
# cells of one pool step of the frontier pass: its transfer matrix, and its
# table with every variant
_MAX_STEP_CELLS = 8_000_000

# above this total occupancy the convolution is tilted by the proportionally
# fair rates at Q (see _frontier_pass)
_TILT_THRESHOLD = 120


class NormConstCache:
    """Memo from queue-vector tuples to log Phi, bound to one polytope."""

    def __init__(self, polytope: CapacityPolytope):
        self.polytope = polytope
        self._log: dict[tuple, float] = {}
        self.kernels: dict[tuple, tuple] = {}

    def lookup(self, key: tuple):
        return self._log.get(key)

    def store(self, key: tuple, value: float):
        self._log[key] = value

    def clear(self):
        self._log.clear()
        self.kernels.clear()

    def __len__(self) -> int:
        return len(self._log)


def _check_queue_vector(Q, n_queues: int) -> np.ndarray:
    # negative entries are allowed here: Phi of such a vector is 0 by
    # convention, which callers read off the returned vector
    q = np.asarray(Q)
    if q.shape != (n_queues,):
        raise ValueError(f"queue vector has shape {q.shape}, expected ({n_queues},)")
    qi = q.astype(np.int64)
    if np.any(qi != q):
        raise ValueError("queue vector entries must be integers")
    return qi


def _log_kernel(counts, log_a, base_count, base_log):
    """Log multinomial pool kernel at broadcastable arrays of served counts.

    ``counts[t]`` holds the count of variable member t, ``log_a[t]`` its log
    pool coefficient; members whose count is forced contribute
    ``base_count`` and ``base_log`` as constants.
    """
    total = float(base_count)
    k = base_log
    for u, la in zip(counts, log_a):
        total = total + u
        k = k + u * la - gammaln(u + 1.0)
    return k + gammaln(total + 1.0)


def _pool_plan(active: tuple, A: np.ndarray):
    """Static contraction schedule for one active set: per pool, the split
    of its members by frontier role, the table permutation, and a memo of
    transfer matrices.  Depends only on the zero pattern of the pool matrix,
    so one plan serves every queue vector with the same support.

    Roles: ``banded`` queues are on the frontier and reappear in a later
    pool; ``contract`` queues are on the frontier and end here; ``fresh``
    queues start here and reappear later; ``fixed`` queues belong to this
    pool only, so it serves all of their packets."""
    last_pool = {j: int(np.flatnonzero(A[:, j] > 0)[-1]) for j in active}
    steps = []
    axes: list[int] = []
    for l in range(A.shape[0]):
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
        steps.append(
            (l, tuple(banded), tuple(contract), tuple(fresh), tuple(fixed),
             perm, tuple(pass_axes), {})
        )
        axes = pass_axes + banded + fresh
    assert axes == [], "internal error: unconsumed frontier axes"
    return steps


def _transfer_matrix(l, banded, contract, fresh, fixed, sizes, fixedq, A, memo):
    """Normalized transfer matrix of pool l and its peak log value.

    ``sizes`` holds the extents Q_j + 1 of the banded, contract and fresh
    members, in that order; ``fixedq`` the counts of the fixed members.
    Rows run over the running totals (r_banded, r_contract) of the table so
    far, columns over the new totals v_banded and the fresh counts u: the
    entry is the pool kernel at served counts v - r (zero where negative),
    Q - r and u.  Memoized in ``memo`` when one is given (exact coefficients
    only)."""
    key = (sizes, fixedq)
    entry = memo.get(key) if memo is not None else None
    if entry is not None:
        return entry
    nb, nc = len(banded), len(contract)
    base_log = sum(
        q * math.log(A[l, j]) - float(gammaln(q + 1.0))
        for j, q in zip(fixed, fixedq)
    )
    klog = _log_kernel(
        np.ix_(*[np.arange(s) for s in sizes]),
        [math.log(A[l, j]) for j in banded + contract + fresh],
        sum(fixedq), base_log,
    )
    mk = float(np.max(klog))
    klin = np.exp(klog - mk)
    if nc:
        # running total r of a contracted queue leaves Q - r packets here
        klin = np.flip(klin, axis=tuple(range(nb, nb + nc)))
    if nb:
        # gather the kernel onto the grid (r_banded, r_contract, v_banded, u)
        grid = sizes[: nb + nc] + sizes[:nb] + sizes[nb + nc:]

        def axis(i):
            shape = [1] * len(grid)
            shape[i] = grid[i]
            return np.arange(grid[i]).reshape(shape)

        served = [axis(nb + nc + t) - axis(t) for t in range(nb)]
        rest = [axis(i) for i in range(nb, nb + nc)] + [axis(i) for i in range(2 * nb + nc, len(grid))]
        klin = klin[tuple(np.maximum(d, 0) for d in served) + tuple(rest)]
        for d in served:
            klin = klin * (d >= 0)
    entry = (np.reshape(klin, (math.prod(sizes[: nb + nc]), -1)), mk)
    if memo is not None and len(memo) < 20_000:
        memo[key] = entry
    return entry


def _frontier_pass(Q: np.ndarray, polytope: CapacityPolytope, memo: dict | None, neighbours: bool):
    """log Phi(Q) by sequential pool convolution, one matrix product per pool.

    With ``neighbours`` the table carries a leading variant axis and the pass
    also returns log Phi(Q - e_j) for every j (-inf where Q_j = 0).  Up to
    queue j's last pool the table does not depend on Q_j beyond its extent,
    so the variant for j branches off the base variant there: a contracted
    j serves one packet fewer, which is the base table shifted by one along
    j's axis; a fixed j takes the pool kernel with Q_j - 1 packets."""
    A = polytope.matrix
    J = len(Q)
    nbr = np.full(J, _NEG_INF) if neighbours else None
    active = tuple(j for j in range(J) if Q[j] > 0)
    if not active:
        return 0.0, nbr
    plan = memo.get(("plan", active)) if memo is not None else None
    if plan is None:
        plan = _pool_plan(active, A)
        if memo is not None:
            memo[("plan", active)] = plan

    # every step's extents, checked against the cap before anything is built
    sz = [int(v) + 1 for v in Q]
    dims = []
    n_var = 1
    for _, banded, contract, fresh, fixed, _, pass_axes, _ in plan:
        p = math.prod(sz[a] for a in pass_axes)
        b = math.prod(sz[j] for j in banded)
        c = math.prod(sz[j] for j in contract)
        f = math.prod(sz[j] for j in fresh)
        if neighbours:
            n_var += len(contract) + len(fixed)
        if max(b * b * c * f, n_var * p * b * max(c, f)) > _MAX_STEP_CELLS:
            raise CapExceededError(
                "normalizing-constant table too large for this queue vector; "
                "reduce the vector or reorder pools"
            )
        dims.append((p, b * c))

    log_z = None
    if int(Q.sum()) > _TILT_THRESHOLD:
        # A_lj -> A_lj z_j multiplies every term of Phi by prod_j z_j^Q_j,
        # corrected at the end; the fair rates maximize that product over
        # A z <= 1, which keeps the table well scaled for large vectors.  The
        # tilt only conditions the pass: any z > 0 gives the same Phi.
        from .propfair import solve_prop_fair  # propfair imports this module

        z = solve_prop_fair(Q, polytope).rates
        z = z / max(float(np.max(A @ z)), 1.0) * (1.0 - 1e-12)
        z[Q == 0] = 1.0
        A = A * z[None, :]
        log_z = np.log(z)

    table = np.ones(1)
    offset = 0.0
    order: list[int] = []  # the queue of each variant after the base
    for (l, banded, contract, fresh, fixed, perm, pass_axes, kmemo), (p, rows) in zip(plan, dims):
        sizes = tuple(sz[j] for j in banded + contract + fresh)
        fixedq = tuple(sz[j] - 1 for j in fixed)
        # coefficients of a tilted pass depend on the state: no memo
        memo_l = kmemo if log_z is None else None
        M, mk = _transfer_matrix(l, banded, contract, fresh, fixed, sizes, fixedq, A, memo_l)
        if perm is not None:
            table = np.transpose(table, perm)
        if neighbours and contract:
            base = table[0]
            births = np.zeros((len(contract),) + base.shape)
            lead = (slice(None),) * (len(pass_axes) + len(banded))
            for t in range(len(contract)):
                births[(t,) + lead + (slice(1, None),)] = base[lead + (slice(None, -1),)]
                lead += (slice(None),)
            table = np.concatenate([table, births])
            order += contract
        flat = table.reshape(-1, rows)
        out = flat @ M
        if neighbours and fixed:
            extra = [out]
            for t, j in enumerate(fixed):
                fq = fixedq[:t] + (fixedq[t] - 1,) + fixedq[t + 1:]
                Mj, mkj = _transfer_matrix(l, banded, contract, fresh, fixed, sizes, fq, A, memo_l)
                extra.append((flat[:p] @ Mj) * math.exp(mkj - mk))
            out = np.concatenate(extra)
            order += fixed

        offset += mk
        m = float(out.max())
        if m > 1e100 or 0.0 < m < 1e-100:
            out = out / m
            offset += math.log(m)
        table = out.reshape((-1,) + tuple(sz[j] for j in pass_axes + banded + fresh))

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
    q = _check_queue_vector(Q, polytope.n_queues)
    if np.any(q < 0):
        return -math.inf
    key = tuple(int(v) for v in q)
    if cache is not None:
        hit = cache.lookup(key)
        if hit is not None:
            return hit
    val, _ = _frontier_pass(q, polytope, cache.kernels if cache is not None else None, False)
    if cache is not None:
        cache.store(key, val)
    return val


def log_norm_const_neighbours(
    Q, polytope: CapacityPolytope, cache: NormConstCache | None = None
) -> tuple[float, np.ndarray]:
    """log Phi(Q) and the vector of every log Phi(Q - e_j) from one frontier
    pass; entries with Q_j = 0 are -inf (the Phi = 0 convention).  With a
    cache, all J + 1 values are looked up first and stored after."""
    q = _check_queue_vector(Q, polytope.n_queues)
    J = len(q)
    if np.any(q < 0):
        return -math.inf, np.full(J, _NEG_INF)
    key = tuple(int(v) for v in q)
    down = [key[:j] + (key[j] - 1,) + key[j + 1:] if key[j] > 0 else None for j in range(J)]
    if cache is not None:
        base = cache.lookup(key)
        hits = [cache.lookup(k) if k is not None else _NEG_INF for k in down]
        if base is not None and None not in hits:
            return base, np.array(hits)
    base, nbr = _frontier_pass(q, polytope, cache.kernels if cache is not None else None, True)
    if cache is not None:
        cache.store(key, base)
        for k, v in zip(down, nbr):
            if k is not None:
                cache.store(k, float(v))
    return base, nbr


def norm_const(Q, polytope: CapacityPolytope, cache: NormConstCache | None = None) -> float:
    """Phi(Q) in linear scale (may overflow for very large vectors)."""
    return float(np.exp(log_norm_const(Q, polytope, cache)))


def norm_const_table(polytope: CapacityPolytope, shape) -> np.ndarray:
    """Phi over an entire box of queue vectors in one convolution sweep.

    ``shape[j]`` is the number of values (Q_j from 0 to shape[j]-1).  Linear
    scale, intended for small verification boxes.
    """
    A = polytope.matrix
    J = A.shape[1]
    shape = tuple(int(s) for s in shape)
    if len(shape) != J:
        raise ValueError("shape must give one extent per queue")
    if int(np.prod(shape, dtype=np.int64)) > _MAX_TABLE_CELLS:
        raise CapExceededError("verification box too large")
    table = np.zeros(shape)
    table[(0,) * J] = 1.0
    for l in range(A.shape[0]):
        members = [j for j in range(J) if A[l, j] > 0 and shape[j] > 1]
        if not members:
            continue
        sizes = [shape[j] for j in members]
        counts = np.ix_(*[np.arange(s) for s in sizes])
        klin = np.exp(_log_kernel(counts, [math.log(A[l, j]) for j in members], 0, 0.0))
        out = np.zeros(shape)
        for u in itertools.product(*[range(s) for s in sizes]):
            dst = [slice(None)] * J
            src = [slice(None)] * J
            for t, j in enumerate(members):
                dst[j] = slice(u[t], shape[j])
                src[j] = slice(0, shape[j] - u[t])
            out[tuple(dst)] += klin[u] * table[tuple(src)]
        table = out
    return table


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
    q = _check_queue_vector(Q, polytope.n_queues)
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
