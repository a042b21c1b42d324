"""Dense primal active-set solver for strictly convex QPs.

Solves  min 1/2 x^T H x + g^T x  subject to box bounds and general rows
A x >= c.  H must be positive definite (the caller damps it).  Equality
constraints are expressed as pinned variables (lb == ub) and are eliminated
before the active-set iteration.  One Cholesky factor of H is reused for
every working-set change; the small Schur system over active rows is
re-solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve


@dataclass
class QPProblem:
    H: np.ndarray
    g: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    A: np.ndarray | None = None       # (m, n), rows  A x >= c
    c: np.ndarray | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        n = len(self.g)
        if self.H.shape != (n, n):
            raise ValueError("H/g dimension mismatch")
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.A is None:
            self.A = np.zeros((0, n))
            self.c = np.zeros(0)
        else:
            self.A = np.asarray(self.A, dtype=float)
            self.c = np.asarray(self.c, dtype=float)
        if np.any(self.lb > self.ub):
            raise ValueError("inconsistent bounds: lb > ub")

    @property
    def n(self) -> int:
        return len(self.g)

    @property
    def m(self) -> int:
        return len(self.c)


@dataclass
class QPSolution:
    x: np.ndarray
    lam_rows: np.ndarray      # multipliers of A x >= c
    lam_lower: np.ndarray
    lam_upper: np.ndarray
    objective: float
    iterations: int
    kkt: dict

    @property
    def max_kkt_residual(self) -> float:
        return max(self.kkt.values())


class QPError(RuntimeError):
    pass


def _kkt_residuals(qp: QPProblem, x, lam_rows, lam_lo, lam_up) -> dict:
    stat = qp.H @ x + qp.g - qp.A.T @ lam_rows - lam_lo + lam_up
    r_rows = qp.A @ x - qp.c if qp.m else np.zeros(0)
    primal = 0.0
    if qp.m:
        primal = max(primal, float(np.maximum(-r_rows, 0.0).max(initial=0.0)))
    primal = max(primal, float(np.maximum(qp.lb - x, 0.0).max(initial=0.0)))
    primal = max(primal, float(np.maximum(x - qp.ub, 0.0).max(initial=0.0)))
    dual = 0.0
    for lam in (lam_rows, lam_lo, lam_up):
        if len(lam):
            dual = max(dual, float(np.maximum(-lam, 0.0).max(initial=0.0)))
    comp = 0.0
    if qp.m:
        comp = max(comp, float(np.abs(lam_rows * r_rows).max(initial=0.0)))
    lo_gap = np.where(np.isfinite(qp.lb), x - qp.lb, 0.0)
    up_gap = np.where(np.isfinite(qp.ub), qp.ub - x, 0.0)
    comp = max(comp, float(np.abs(lam_lo * lo_gap).max(initial=0.0)))
    comp = max(comp, float(np.abs(lam_up * up_gap).max(initial=0.0)))
    return {
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "primal": primal,
        "dual": dual,
        "complementarity": comp,
    }


def _feasible_start(H, g, lb, ub, A, c, x0, tol) -> np.ndarray:
    """Feasible point for phase 2; runs an elastic phase-1 QP if needed.

    Phase 1 minimizes the elastic shortfall t subject to A x + t >= c with
    the original box; its start (clipped x0, large t) is always feasible.
    """
    x = np.clip(np.zeros(len(g)) if x0 is None else np.asarray(x0, dtype=float),
                lb, ub)
    m = len(c)
    if m == 0 or np.all(A @ x - c >= -1e-12):
        return x
    n = len(g)
    # the weak pull toward the clipped start keeps phase 1 strictly convex
    # and well conditioned; the polish below removes its bias exactly
    H1 = np.zeros((n + 1, n + 1))
    H1[:n, :n] = 1e-4 * np.eye(n)
    H1[n, n] = 1.0
    g1 = np.concatenate([-1e-4 * x, [0.0]])
    A1 = np.column_stack([A, np.ones(m)])
    lb1 = np.concatenate([lb, [0.0]])
    ub1 = np.concatenate([ub, [np.inf]])
    t0 = float(np.maximum(c - A @ x, 0.0).max()) + 1.0
    x1 = np.concatenate([x, [t0]])
    chol1 = cho_factor(H1 + 0.0, lower=True)
    z, _, _, _ = _active_set_core(H1, g1, lb1, ub1, A1, c, x1, chol1, tol,
                                  200 + 20 * (n + m + 1))
    scale = 1.0 + float(np.abs(c).max(initial=0.0))
    # polish away the elastic residue by alternating projection; the polish
    # outcome, not the elastic value, decides feasibility
    x = np.clip(z[:n], lb, ub)
    for _ in range(300):
        r = c - A @ x
        viol = r > 0.0
        if not np.any(viol):
            return x
        Av = A[viol]
        corr = Av.T @ np.linalg.solve(Av @ Av.T + 1e-14 * np.eye(int(viol.sum())),
                                      r[viol] + 1e-12)
        x = np.clip(x + corr, lb, ub)
    raise QPError(f"infeasible constraints: minimum elastic slack {z[n]:.3e}")


def _active_set_core(H, g, lb, ub, A, c, x, chol, tol, max_iter):
    """Primal active-set loop from a feasible x; returns (x, work, lam_w)."""
    n, m = len(g), len(c)

    def row_vec(k):
        if k < m:
            return A[k]
        k -= m
        e = np.zeros(n)
        if k < n:
            e[k] = 1.0
        else:
            e[k - n] = -1.0
        return e

    rhs_all = np.concatenate([c, lb, -ub])
    finite_rhs = np.isfinite(rhs_all)
    total = m + 2 * n

    work: list[int] = []
    Y = np.zeros((n, 0))        # cached H^-1 A_W^T columns
    lam_w = np.zeros(0)
    in_work = np.zeros(total, dtype=bool)

    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise QPError(f"active-set iteration cap {max_iter} exceeded "
                          f"(working set size {len(work)})")
        grad = H @ x + g
        y = cho_solve(chol, grad)
        if work:
            Aw = np.stack([row_vec(k) for k in work])
            S = Aw @ Y
            lam_w = np.linalg.solve(S, Aw @ y)
            p = Y @ lam_w - y
        else:
            lam_w = np.zeros(0)
            p = -y

        if float(np.abs(p).max(initial=0.0)) <= tol:
            if len(lam_w) == 0 or lam_w.min() >= -tol:
                return x, work, lam_w, it
            # Bland-style smallest-index rule avoids cycling on degenerate
            # working sets
            neg = [j for j in range(len(lam_w)) if lam_w[j] < -tol]
            j = min(neg, key=lambda jj: work[jj])
            in_work[work[j]] = False
            work.pop(j)
            Y = np.delete(Y, j, axis=1)
            continue

        # ratio test over inactive constraints that the step decreases
        vals = np.concatenate([A @ x, x, -x]) if m else np.concatenate(
            [np.zeros(0), x, -x])
        slopes = np.concatenate([A @ p, p, -p]) if m else np.concatenate(
            [np.zeros(0), p, -p])
        alpha, blocker = 1.0, -1
        cand = np.where(finite_rhs & ~in_work & (slopes < -1e-13))[0]
        for k in cand:
            gap = max(float(vals[k] - rhs_all[k]), 0.0)
            ratio = gap / float(-slopes[k])
            # strict improvement plus smallest-index tie break (anti-cycling)
            if ratio < alpha - 1e-15 or (ratio < alpha + 1e-15 and blocker >= 0
                                         and k < blocker):
                alpha, blocker = min(ratio, alpha), int(k)
        x = x + alpha * p
        if blocker >= 0:
            a = row_vec(blocker)
            work.append(blocker)
            in_work[blocker] = True
            Y = np.column_stack([Y, cho_solve(chol, a)])


def solve_qp(qp: QPProblem, x0=None, tol: float = 1e-10,
             max_iter: int | None = None) -> QPSolution:
    """Primal active-set iteration with a cached Cholesky factor of H.

    Raises QPError with the current residuals if the iteration cap is hit,
    and for an indefinite Hessian or infeasible constraints.
    """
    n_full = qp.n
    pinned = np.isfinite(qp.lb) & (qp.ub - qp.lb <= 0.0)
    free = ~pinned
    x_pin = np.where(pinned, qp.lb, 0.0)

    if not np.any(free):
        x = x_pin
        lam = np.zeros(qp.m)
        stat = qp.H @ x + qp.g
        lam_lo = np.maximum(stat, 0.0)
        lam_up = np.maximum(-stat, 0.0)
        kkt = _kkt_residuals(qp, x, lam, lam_lo, lam_up)
        return QPSolution(x, lam, lam_lo, lam_up,
                          float(0.5 * x @ qp.H @ x + qp.g @ x), 0, kkt)

    H = qp.H[np.ix_(free, free)]
    g = qp.g[free] + qp.H[np.ix_(free, pinned)] @ x_pin[pinned]
    lb, ub = qp.lb[free], qp.ub[free]
    keep_rows = np.zeros(0, dtype=int)
    if qp.m:
        keep_rows = np.where(np.any(qp.A[:, free] != 0.0, axis=1))[0]
        A = qp.A[np.ix_(keep_rows, np.where(free)[0])]
        c = (qp.c - qp.A[:, pinned] @ x_pin[pinned])[keep_rows]
        # rows touching only pinned variables must hold as constants
        const_rows = np.setdiff1d(np.arange(qp.m), keep_rows)
        if len(const_rows):
            shortfall = (qp.c - qp.A @ x_pin)[const_rows]
            if np.any(shortfall > 1e-9):
                raise QPError("infeasible: constant constraint rows violated")
    else:
        A, c = np.zeros((0, int(free.sum()))), np.zeros(0)
    n = int(free.sum())
    m = len(c)

    try:
        chol = cho_factor(H, lower=True)
    except np.linalg.LinAlgError as exc:
        raise QPError("Hessian is not positive definite") from exc

    if max_iter is None:
        max_iter = 200 + 10 * (n + m)
    x_start = _feasible_start(H, g, lb, ub, A, c,
                              None if x0 is None else np.asarray(x0, dtype=float)[free],
                              tol)
    x, work, lam_w, it = _active_set_core(H, g, lb, ub, A, c, x_start, chol,
                                          tol, max_iter)

    lam_rows_f, lam_lo_f, lam_up_f = _expand_multipliers(work, lam_w, m, n)

    # map back to the full variable space
    x_full = x_pin.copy()
    x_full[free] = x
    lam_rows = np.zeros(qp.m)
    if qp.m:
        lam_rows[keep_rows] = lam_rows_f
    lam_lo = np.zeros(n_full)
    lam_up = np.zeros(n_full)
    lam_lo[free] = lam_lo_f
    lam_up[free] = lam_up_f
    if np.any(pinned):
        stat_pin = (qp.H @ x_full + qp.g - qp.A.T @ lam_rows)[pinned]
        lam_lo[pinned] = np.maximum(stat_pin, 0.0)
        lam_up[pinned] = np.maximum(-stat_pin, 0.0)

    kkt = _kkt_residuals(qp, x_full, lam_rows, lam_lo, lam_up)
    obj = float(0.5 * x_full @ qp.H @ x_full + qp.g @ x_full)
    return QPSolution(x=x_full, lam_rows=lam_rows, lam_lower=lam_lo,
                      lam_upper=lam_up, objective=obj, iterations=it, kkt=kkt)


def _expand_multipliers(work, lam_w, m, n):
    lam_rows = np.zeros(m)
    lam_lo = np.zeros(n)
    lam_up = np.zeros(n)
    for k, lam in zip(work, lam_w):
        if k < m:
            lam_rows[k] = lam
        elif k < m + n:
            lam_lo[k - m] = lam
        else:
            lam_up[k - m - n] = lam
    return lam_rows, lam_lo, lam_up
