"""Independent verification oracles for constructed families.

Two routes certify quasi-orthogonality.  The symbolic route is exact
finite-field combinatorics: monomial spans of two subspaces satisfy the
trace condition Tr(A1 A2) = Tr(A1) Tr(A2) / Tr(I) exactly when the
subspaces meet only in zero, because distinct monomials are trace
orthogonal; a member is a full matrix algebra M_{p^k} exactly when its
subspace is symplectically nondegenerate of dimension 2k; and the family is
maximal when the members' nonzero points partition the nonzero phase space,
read from the same scan as the pairwise intersections.  The numeric
route ignores all of that and evaluates the trace condition literally on
synthesized matrices, both members of a pair as (target, values) parts, the
one nonzero entry per column of each monomial, with a CSR index on the row
member, so the two routes check each other.  A row member's partners are
synthesized and traced a batch at a time; each cell still adds its hits in
increasing column order, so every residual has the bits of a pair-by-pair
run.

The masa bridge: each isotropic member of dimension m spans a maximal
abelian subalgebra whose common eigenbasis is written down from its
characters, and quasi-orthogonality of two masas is equivalent to the two
bases being mutually unbiased (all cross overlaps |<x, z>|^2 = 1/d).
"""

from __future__ import annotations

import collections
import itertools
import os
import threading

import numpy as np

from .constructions import MATRIX_ALGEBRA, SpreadFamily, expected_count
from .phase_space import ISOTROPIC, NONDEGENERATE, RowStacks, _disjointness, _gram_ranks, _kind, _ranges, _spans
from .report import DEFAULT_TOL, VerificationReport, _power
from .weyl import _monomial_parts, _tables

NUMERIC_MAX_DIM = 81
SAMPLE_THRESHOLD = 1000
SAMPLE_PAIRS = 200
NUMERIC_BATCH_ENTRIES = 2**14  # partner part entries (matrices x columns) per trace call: two M_9 at d = 81


def verify_symbolic(family: SpreadFamily) -> tuple[VerificationReport, VerificationReport | None]:
    """Exact certification of a family, and its partition report.

    The first passes iff all pairwise intersections are trivial, every
    matrix-algebra member is nondegenerate of dimension 2k (hence spans a
    copy of M_{p^k}), every masa member is isotropic of dimension 2k, and the
    member count meets the dimension bound, its failure listed last.  The
    second, from the same scan of the point-ownership index, passes iff the
    members' nonzero points are disjoint and cover the nonzero ambient; it is
    None for no member or a lone member too large to enumerate.  Raises where
    ``phase_space._check_index`` refuses.
    """
    labels, kinds = family.labels(), family.kinds()
    pairs, partition = _disjointness(family.rows, labels)
    failures = list(pairs.failures)
    checks = pairs.checks_run + len(labels) + 1  # the last one the member count
    dim_want = 2 * family.params.k
    dims, ranks = family.rows.counts, _gram_ranks(family.rows)
    algebra = np.array([kind == MATRIX_ALGEBRA for kind in kinds], dtype=bool)
    for i in np.flatnonzero((dims != dim_want) | np.where(algebra, ranks != dims, ranks != 0)).tolist():
        want = NONDEGENERATE if algebra[i] else ISOTROPIC
        failures.append(
            (labels[i],
             f"{kinds[i]} member classified {_kind(ranks[i], dims[i])} (gram rank {ranks[i]}, "
             f"dim {dims[i]}, want {want} of dim {dim_want})")
        )
    p, k, n = family.params.p, family.params.k, family.params.n
    want_count = (expected_count(p, k, n) if isinstance(_power(p, 2 * k * (n - 1)), int)  # p^{2k(n-1)} <= count
                  else f"({p}^{2 * k * n} - 1)/({p}^{2 * k} - 1)")  # text, which no count equals: no power built
    if len(labels) != want_count:
        failures.append(("family", f"{len(labels)} members, expected {want_count}"))
    return VerificationReport(checks_run=checks, failures=failures), partition


def _numeric_dim(p: int, m: int) -> int:
    """The dimension p^m of the matrices over m factors, refused above ``NUMERIC_MAX_DIM``."""
    dim = _power(p, m)
    if isinstance(dim, str) or dim > NUMERIC_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds guard {NUMERIC_MAX_DIM}")
    return dim


def _cross_traces(target: np.ndarray, values: np.ndarray):
    """cross(t, v)[a, b] = Tr(A_a B_b) = sum_{x,y} A_a[x, y] B_b[y, x] for the A_a of
    parts (target, values) and the B_b of parts (t, v).  A_a's entries are indexed
    once by position (CSR, key x * d + y); B_b[y, x] is nonzero only at y = t[b, x],
    so only the keys x * d + t[b, x] are read, and each cell adds its hits in
    increasing x.  A non-finite value makes every trace of its matrix NaN (every
    trace, on A's side), as in a dense product, though most entries go unread."""
    count, d = target.shape
    keys = (target * d + np.arange(d)).ravel()
    order = np.argsort(keys.astype(np.min_scalar_type(d * d - 1)), kind="stable")  # a radix sort up to d = 256
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=d * d))))
    owners, vals, finite = order // d, values.ravel()[order], np.isfinite(values).all()

    def cross(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not finite:
            return np.full((count, len(t)), np.nan, dtype=complex)
        keys = (np.arange(d) * d + t).ravel()
        lo, hits = indptr[keys], indptr[keys + 1] - indptr[keys]
        query = np.repeat(np.arange(keys.size), hits)  # b * d + x of each hit
        pos = _ranges(lo, hits)
        prod, cell, size = vals[pos] * v.ravel()[query], owners[pos] * len(t) + query // d, count * len(t)
        cross = np.bincount(cell, prod.real, size) + 1j * np.bincount(cell, prod.imag, size)
        cross = cross.reshape(count, len(t))
        cross[:, ~np.isfinite(v).all(axis=1)] = np.nan
        return cross

    return cross


def _member_parts(rows: RowStacks):
    """parts(positions): the ``_monomial_parts`` of the span points of the members at
    ``positions``, member after member.  Every member's span points are enumerated
    once, by one span product per row count; each call gathers its members' points
    and synthesizes them at once."""
    sizes = rows.p ** rows.counts
    starts, spans = np.cumsum(sizes) - sizes, np.empty((sizes.sum(), rows.width), dtype=rows.rows.dtype)
    for at, stack in rows.groups:
        spans[starts[at, None] + np.arange(rows.p ** stack.shape[1])] = _spans(rows.p, stack)

    def parts(positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
        points = _ranges(starts[positions], sizes[positions])
        return _monomial_parts(rows.p, rows.width // 2, spans[points])

    return parts


def verify_qo_numeric(
    family: SpreadFamily, tol: float = DEFAULT_TOL, *, sample_pairs: int | None = None, seed: int = 0
) -> VerificationReport:
    """Evaluate the trace condition on synthesized matrices, pair by pair.

    For every examined pair of members and every pair (A1, A2) of their non-identity
    basis matrices, the residual is |Tr(A1 A2) - Tr(A1) Tr(A2) / Tr(I)|; the check
    passes iff the largest residual is finite and within ``tol``.  Above
    ``SAMPLE_THRESHOLD`` member pairs a random subset of ``SAMPLE_PAIRS`` pairs is
    used unless ``sample_pairs`` says otherwise; it is drawn as ranks in the
    lexicographic order of all pairs, each mapped back to its pair, so no pair list
    is built.  Members come as (target, values) parts from ``_member_parts`` (value
    v[x] at (t[x], x), one matrix per span point), and every trace, Tr(A) = Tr(A I)
    included, is ``_cross_traces`` over the stored entries of both.  Pairs are
    examined in sorted order: the first member is indexed once for the run of pairs
    that start with it, and its partners are synthesized and traced together, at
    most ``NUMERIC_BATCH_ENTRIES`` part entries at a time, then cut into one block
    per pair.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    dim = _numeric_dim(family.params.p, family.params.ambient_factors)
    n = len(family.rows)
    checks = n * (n - 1) // 2
    if sample_pairs is None and checks > SAMPLE_THRESHOLD:
        sample_pairs = SAMPLE_PAIRS
    if sample_pairs is not None and sample_pairs < checks:
        ranks = np.sort(np.random.default_rng(seed).choice(checks, size=sample_pairs, replace=False))
        starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2  # the rank of the pair (i, i + 1)
        firsts = np.searchsorted(starts, ranks, side="right") - 1
        pairs = zip(firsts.tolist(), (ranks - starts[firsts] + firsts + 1).tolist())
        checks = sample_pairs
    else:
        pairs = itertools.combinations(range(n), 2)

    labels, parts, worst, failures = family.labels(), _member_parts(family.rows), 0.0, []
    sizes = (family.params.p ** family.rows.counts).tolist()  # matrices per member
    batch = max(1, NUMERIC_BATCH_ENTRIES // (max(sizes, default=1) * dim))  # partners per call
    for i, run in itertools.groupby(pairs, key=lambda pair: pair[0]):
        traces, partners = _cross_traces(*parts([i])), [j for _, j in run]
        for start in range(0, len(partners), batch):
            chunk = partners[start:start + batch]
            cross = traces(*parts(chunk))
            for j, block in zip(chunk, np.split(cross, np.cumsum([sizes[j] for j in chunk[:-1]]), axis=1)):
                # both spans list the identity first: block[a, 0] = Tr(A_a) and block[0, b] = Tr(B_b)
                resid = np.abs(block[1:, 1:] - np.outer(block[1:, 0], block[0, 1:]) / dim)
                top = float(resid.max(initial=0.0))  # a member of dimension 0 has no non-identity matrix
                worst = float(np.maximum(worst, top))  # NaN once either is NaN; max() would drop it
                if not top <= tol:
                    failures.append(
                        (f"{labels[i]} & {labels[j]}", f"trace-condition residual {top:.3e} exceeds tol {tol:.1e}")
                    )
    return VerificationReport(checks_run=checks, max_residual=worst, failures=failures)


def extract_mub_bases(masas: SpreadFamily) -> list[np.ndarray]:
    """The common eigenbasis of each masa member, as a unitary column matrix.

    Monomials multiply as M_u M_v = lam^beta(u, v) M_{u+v}, beta(u, v) = l(u) . k(v),
    and beta is symmetric on an isotropic L, so N_u = lam^{beta(u, u)/2} M_u
    represents L.  Column w is the normalised column x_w of the projector
    (1/d) sum_u lam^{w . c(u)} N_u (c(u): u's span coefficients), x_w being the
    first index on which the shift-free points K of L act by the character w.
    Each u in L puts sqrt(|K|/d) lam^e at row x_w + k(u), with
    e = w . c(u) + beta(u, u)/2 + l(u) . x_w: no random draw, no eigensolver.
    All members are classified by one batched Gram elimination and spanned by
    one span product before any basis is written.
    """
    p, m = masas.params.p, masas.params.ambient_factors
    dim = _numeric_dim(p, m)
    digits = np.indices((p,) * m).reshape(m, dim).T  # row t: the m base-p digits of t
    char = digits @ digits.T % p  # char[w, u] = w . c(u), span row u having coefficients digits[u]
    places, add = p ** np.arange(m - 1, -1, -1), _tables(p, m)[0]  # add[x, s]: the index of x + s, digit-wise mod p
    rows = masas.rows
    bad = np.flatnonzero((rows.counts != m) | (_gram_ranks(rows) != 0)).tolist()
    if bad:
        raise ValueError(f"{masas.labels()[bad[0]]}: subspace is not isotropic of dimension {m}")
    bases = []
    for span in _spans(p, rows.rows.reshape(len(rows), m, 2 * m)).astype(np.int64):
        shifts, clocks = span[:, 0::2], span[:, 1::2]
        free = ~shifts.any(axis=1)
        acts = (char[:, None, free] + (digits @ clocks[free].T)[None]) % p  # acts[w, x, kappa]
        first = (~acts.any(axis=2)).argmax(axis=1)  # x_w
        expo = (char + (clocks * shifts).sum(axis=1) * ((p + 1) // 2) + digits[first] @ clocks.T) % p
        table = np.sqrt(free.sum() / dim) * np.exp(2j * np.pi * np.arange(p) / p)
        basis = np.zeros((dim, dim), dtype=complex)
        basis[add[first[:, None], shifts @ places], np.arange(dim)[:, None]] = table[expo]  # row x_w + k(u)
        bases.append(basis)
    return bases


def _unbiasedness(size: np.ndarray, d: int) -> np.ndarray:
    """max | s^2 - 1/d | over the entries s = |<x, z>| of each size[:, j, :], read from
    the largest and the smallest s of the slice: squaring and subtracting round
    monotonically, so the bits are those of the entry-wise maximum, and a NaN
    anywhere in a slice makes its residual NaN."""
    hi, lo = size.max(axis=0).max(axis=1), size.min(axis=0).min(axis=1)  # axis 0 first: whole rows at a time
    return np.maximum(hi**2 - 1.0 / d, 1.0 / d - lo**2)


def check_mub_overlaps(
    bases: list[np.ndarray], tol: float = DEFAULT_TOL, labels: list[str] | None = None
) -> VerificationReport:
    """Pass iff every basis is orthonormal and all cross overlaps satisfy
    | |<x, z>|^2 - 1/d | <= tol, every residual being finite.

    One check per basis (orthonormality) and one per pair of bases.  For each
    basis U_i a single product U_i^* [U_i U_{i+1} ... U_{N-1}] gives its Gram
    block and the overlaps with every later basis.  One thread per CPU the
    process may run on takes rows from one queue (numpy releases the GIL in the
    product and in |z|): the calling thread from the front, where rows are
    largest, the others from the back, so a large row's products are alive
    beside small ones, and each row's products are freed before its thread
    takes the next.  Rows merge in index order, orthonormality failures first,
    then pair failures in (i, j) order, with the bits of one thread.
    """
    if not bases:
        raise ValueError("no bases to check")
    labels = labels if labels is not None else [f"basis {i}" for i in range(len(bases))]
    d = bases[0].shape[0]
    eye = np.eye(d)
    columns = np.concatenate(bases, axis=1)  # basis j in columns j*d .. (j+1)*d - 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers, rows, errors = min(cpus, len(bases)), [None] * len(bases), []
    pending, lock = collections.deque(range(len(bases))), threading.Lock()

    def overlaps(i: int) -> tuple[float, np.ndarray]:
        blocks = (bases[i].conj().T @ columns[:, i * d:]).reshape(d, len(bases) - i, d)
        return float(np.abs(blocks[:, 0] - eye).max()), _unbiasedness(np.abs(blocks)[:, 1:], d)

    def work(front: bool) -> None:
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    i = pending.popleft() if front else pending.pop()
                rows[i] = overlaps(i)
        except BaseException as exc:  # re-raised in the calling thread once every worker is joined
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(False,)) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    work(True)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    worst, own_failures, pair_failures = 0.0, [], []
    for i, (resid, pair_resid) in enumerate(rows):
        worst = float(np.maximum(worst, resid))
        if not resid <= tol:
            own_failures.append((labels[i], f"not orthonormal: residual {resid:.3e}"))
        worst = float(np.max(pair_resid, initial=worst))  # NaN-propagating, like np.maximum
        for j in np.flatnonzero(~(pair_resid <= tol)).tolist():
            pair_failures.append(
                (f"{labels[i]} & {labels[i + 1 + j]}", f"unbiasedness residual {pair_resid[j]:.3e}")
            )
    checks = len(bases) * (len(bases) + 1) // 2
    failures = own_failures + pair_failures
    return VerificationReport(checks_run=checks, max_residual=worst, failures=failures)
