"""p-modulus of finite measure families.

Mod_p(Sigma) = inf { sum_x m_x f_x^p : f >= 0, <mu_i, f> >= 1 for all i }.

Conventions: an empty family has modulus 0 (no constraints), a family
containing the zero measure has modulus +inf (its constraint cannot be
met).  Points with m_x = 0 cost nothing, so any measure putting mass on
them is satisfiable for free and is dropped up front (reported in
``dropped``).

The modulus is read off the dual content problem (``_PlanProblem``):
minimize the L^q(m) norm of a plan's barycenter g over the probability
simplex, then rescale f = g^(q-1) to be admissible.  The plan and the
density bracket the modulus between content^p and ||f||_p^p, and a
solve either closes that bracket to its tolerance or raises
SolverError.  A log-barrier Newton path on f (``_solve_modulus_primal``,
not public) and an exhaustive lattice search on at most 4 points stay as
independent oracles for cross-checks.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .families import _path_rows
from .space import DiscreteMeasure, MetricMeasureSpace, _entries

__all__ = [
    "ModulusSolution",
    "solve_modulus_explicit",
    "brute_force_lattice",
    "solve_modulus_paths",
    "shortest_weighted_path",
    "saturated_subfamily",
]


@dataclass(frozen=True)
class ModulusSolution:
    """Result of a modulus solve.

    ``value`` may be ``inf`` (zero measure present); ``f`` is None in
    that case.  ``multipliers`` align with the input measure list (with
    ``paths`` for a path family); dropped or inactive measures carry 0.
    The stationarity relation is
    p * m_x * f_x^(p-1) = sum_i multipliers[i] * mu_i(x) on {m > 0}.
    ``dual_value <= Mod <= value`` is a weak-duality bracket and ``gap``
    its relative width.  ``iterations`` counts projected-gradient and
    barrier steps, not Newton steps of the polish, so a solve the polish
    alone certifies reports 0.  Only path solves fill ``paths`` and
    ``outer_iterations``.
    """

    value: float
    f: np.ndarray | None
    multipliers: np.ndarray | None
    iterations: int
    gap: float
    dual_value: float
    dropped: tuple[int, ...] = ()
    empty_family: bool = False
    paths: tuple[tuple[int, ...], ...] = ()
    outer_iterations: int = 0


def _check_p(p: float, name: str = "p") -> float:
    """The exponent p, or its conjugate q by ``name``, as a finite float > 1."""
    if not (p > 1 and math.isfinite(p)):
        raise InvalidInstanceError(f"exponent must satisfy {name} > 1 (finite), got {p}")
    return float(p)


def _check_count(n: int, name: str) -> None:
    """InvalidInstanceError unless n is an integer >= 1."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidInstanceError(f"{name} must be an integer, got {n!r}") from None
    if n < 1:
        raise InvalidInstanceError(f"{name} must be at least 1, got {n}")


def _check_limits(*tols: float, cap: int = 1) -> None:
    """InvalidInstanceError unless tolerances are finite and >= 0 and cap an integer >= 1."""
    for tol in tols:
        if not (math.isfinite(tol) and tol >= 0):
            raise InvalidInstanceError(f"tolerance must be finite and >= 0, got {tol}")
    _check_count(cap, "iteration cap")


# Projected-gradient steps before the face polish, and the rounding
# allowance per unit of exponent in phi or in a bracket width, whose two
# ends are evaluated along different paths.
_FIRST_POLISH = 16
_ROUNDING = 8 * float(np.finfo(float).eps)


def _trivial_solution(
    space: MetricMeasureSpace,
    n_measures: int,
    dropped: tuple[int, ...],
    has_zero: bool,
) -> ModulusSolution:
    if has_zero:
        return ModulusSolution(
            value=math.inf,
            f=None,
            multipliers=None,
            iterations=0,
            gap=0.0,
            dual_value=math.inf,
            dropped=dropped,
        )
    return ModulusSolution(
        value=0.0,
        f=np.zeros(space.n_points),
        multipliers=np.zeros(n_measures),
        iterations=0,
        gap=0.0,
        dual_value=0.0,
        dropped=dropped,
        empty_family=not dropped and n_measures == 0,
    )


def _constraint_matrix(
    space: MetricMeasureSpace, measures: Sequence[DiscreteMeasure]
) -> tuple[np.ndarray, list[int], tuple[int, ...], bool]:
    """Constraint matrix U of a family, and which measures it keeps.

    Row r of U is the r-th kept measure on the positive-mass columns,
    written from the family's entries (``space._entries``) with all other
    rows in one scatter.  Returns U, the kept indices, the dropped ones
    (measures that charge a zero-mass point, met for free) and whether a
    zero measure is present.  Raises InvalidInstanceError naming the first
    measure that charges a point outside the space.
    """
    member, pts, vals = _entries(space, measures)
    msk = space.positive_mask
    zero = np.bincount(member, minlength=len(measures)) == 0
    null = np.bincount(member[~msk[pts]], minlength=len(measures)) > 0
    keep = ~(zero | null)
    sel = keep[member]
    row, col = np.cumsum(keep) - 1, np.cumsum(msk) - 1
    U = np.zeros((int(keep.sum()), int(msk.sum())))
    U[row[member[sel]], col[pts[sel]]] = vals[sel]
    dropped = tuple(np.flatnonzero(null).tolist())
    return U, np.flatnonzero(keep).tolist(), dropped, bool(zero.any())


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    v = v - v.max()  # the same projection; u[0] = 0 keeps rho defined at any scale
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _kkt_solve(
    kkt: np.ndarray, rhs: np.ndarray, resid: float
) -> tuple[np.ndarray, float] | None:
    """Solve [[H, 1], [1^T, 0]] [dw; nu] = [rhs; resid], or None if singular.

    ``kkt`` is that bordered matrix, as ``_PlanProblem.hessian`` builds it.
    """
    n = len(rhs)
    try:
        sol = np.linalg.solve(kkt, np.append(rhs, resid))
    except np.linalg.LinAlgError:
        return None
    return sol[:n], float(sol[n])


class _PlanProblem:
    """min phi(w) = sum_x m_x h_x^q, h = (w @ U) / m, over the simplex.

    This is the content problem of the family whose measures are the rows
    of U (on the positive-mass columns): h is the barycenter density of
    the plan w.  The density read off w is f = h^(q-1); its constraint values
    are G = U @ f = grad phi / q, and because phi is q-homogeneous,
    phi = w . G.  Rescaling f by s = min_i G_i makes it admissible, which
    brackets the modulus between the plan's content^p = phi^(1-p) and the
    energy ||f / s||_p^p = phi / s^p: the relative width of the bracket
    is 1 - (s / phi)^p.

    At q = 2 (p = 2) phi = sum (wU)^2 / m is quadratic: its Hessian
    2 U diag(1/m) U^T is fixed, and ``hessian`` keeps the Gram entries it
    has computed; ``renew``, which changes the rows, keeps those that stay.
    """

    def __init__(self, space: MetricMeasureSpace, U: np.ndarray, p: float):
        self.space, self.U, self.p = space, U, p
        self.q = p / (p - 1.0)
        self.mpos = space.measure[space.positive_mask]
        # Rows with known Gram entries in the order they came, and each row's place.
        self._known, self._gram = np.zeros(0, np.intp), np.zeros((0, 0))
        self._pos = np.full(len(U), -1)

    def renew(self, keep: np.ndarray, rows: np.ndarray) -> None:
        """Keep the rows of U that the mask ``keep`` marks, then append ``rows``.

        ``rows`` has a column per point, as ``_path_rows`` writes them.  U
        is copied once, and the kept rows keep their known Gram entries,
        both gathered by 1-D takes (the same values as ``np.ix_`` and
        ``np.compress`` give, at a fraction of their cost).
        """
        idx, at = np.flatnonzero(keep), self._pos[keep]
        self._known = np.flatnonzero(at >= 0)
        self._gram = self._gram[at[self._known]][:, at[self._known]]  # before U grows
        U = np.empty((len(idx) + len(rows), self.U.shape[1]))
        np.take(self.U, idx, axis=0, out=U[: len(idx)], mode="clip")
        np.compress(self.space.positive_mask, rows, axis=1, out=U[len(idx) :])
        self.U, self._pos = U, np.full(len(U), -1)
        self._pos[self._known] = np.arange(len(self._known))

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """phi, the constraint values G, the bracket gap and the barycenter h at w."""
        phi, f, h = self.potential(w)
        return (phi, *self.bracket(phi, f), h)

    def potential(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """phi, the density f and the barycenter h at w, from one product with U.

        Line searches call this at each trial point and ``bracket`` only
        at the point they accept, whose h the next ``hessian`` reads.
        """
        h = (w @ self.U) / self.mpos
        f = h ** (self.q - 1.0)
        return float(np.dot(self.mpos, h * f)), f, h

    def bracket(self, phi: float, f: np.ndarray) -> tuple[np.ndarray, float]:
        """Constraint values G = U @ f and the bracket gap, given phi and f."""
        G = self.U @ f
        s = float(G.min())
        return G, max(1.0 - (s / phi) ** self.p, 0.0) if s > 0 else 1.0

    def hessian(self, rows: np.ndarray, h: np.ndarray | None) -> np.ndarray:
        """The bordered system [[H, 1], [1^T, 0]] of ``_kkt_solve``, fresh.

        H is the Hessian of phi restricted to the rows of the mask ``rows``,
        at the plan whose barycenter h ``potential`` returned.  At q = 2 H
        does not depend on the plan, and h is not read: each row's Gram
        entries are computed once, when first asked for, against the rows
        known by then, and H is gathered from them by two 1-D takes.
        """
        q, n = self.q, int(np.count_nonzero(rows))
        kkt = np.empty((n + 1, n + 1))
        kkt[n], kkt[:n, n], kkt[n, n] = 1.0, 1.0, 0.0
        if q == 2.0:
            new, k = np.flatnonzero(rows & (self._pos < 0)), len(self._known)
            if new.size:
                scale, Vn = np.sqrt(2.0 / self.mpos), self.U[new]
                Vn *= scale  # scaled in place: one temporary of the new rows' size
                gram = np.empty((k + new.size,) * 2)
                gram[:k, :k], gram[k:, k:] = self._gram, Vn @ Vn.T
                Vn *= scale  # now U[new] * 2 / m, against the unscaled known rows
                gram[k:, :k] = Vn @ self.U[self._known].T
                gram[:k, k:] = gram[k:, :k].T
                self._pos[new] = np.arange(k, k + new.size)
                self._known, self._gram = np.concatenate([self._known, new]), gram
            at = self._pos[rows]
            kkt[:n, :n] = self._gram[at][:, at]
        else:
            coef = q * (q - 1.0) * np.maximum(h, 1e-12 * h.max()) ** (q - 2.0) / self.mpos
            Ur = self.U[rows]  # a copy, scaled in place: one temporary of this size
            Ur *= np.sqrt(coef)
            np.matmul(Ur, Ur.T, out=kkt[:n, :n])
        return kkt

    def solve(
        self, w: np.ndarray, gap_tol: float, max_iter: int, at: Sequence | None = None
    ) -> tuple[np.ndarray, int]:
        """Plan weights with bracket gap <= gap_tol, from the plan w.

        Projected gradient (Barzilai-Borwein steps, Armijo backtracking)
        until the line search fails or 16 steps have run, then one projected
        Newton polish (``face_newton``) from the last iterate and its
        evaluation.  If the gap is still open, a log-barrier Newton path
        finds the support and the polish finishes on it.  ``max_iter``
        bounds the gradient and barrier steps together.  ``at`` is
        ``evaluate(w)``, when the caller holds it.  Returns the weights and
        the step count, or raises SolverError when the gap stays above
        gap_tol.
        """
        phi, G, gap, h = at or self.evaluate(w)
        step, it, stalled = 1.0, 0, False
        while gap > gap_tol and it < min(max_iter, _FIRST_POLISH):
            it += 1
            grad = self.q * G
            trial = step
            for _ in range(60):
                w_new = _project_simplex(w - trial * grad)
                phi_new, f_new, h_new = self.potential(w_new)
                if phi_new <= phi + 1e-4 * float(grad @ (w_new - w)) or phi_new < phi:
                    break
                trial *= 0.5
            else:  # the line search failed
                stalled = True
                break
            G_new, gap_new = self.bracket(phi_new, f_new)
            d_w, d_grad = w_new - w, self.q * G_new - grad
            w, phi, G, gap, h = w_new, phi_new, G_new, gap_new, h_new
            denom = float(d_grad @ d_grad)  # Barzilai-Borwein step, safeguarded
            bb = abs(float(d_w @ d_grad)) / denom if denom else 2 * trial
            step = min(max(bb, 1e-12), 1e12)
        if gap > gap_tol and (stalled or it == _FIRST_POLISH):
            w, phi, G, gap, h = self.face_newton(w, phi, G, gap, h)
        if gap > gap_tol and it < max_iter:
            w, steps, (phi, G, gap, h) = self.barrier(w, gap_tol, max_iter - it)
            it += steps
            if gap > gap_tol:
                # Keep the measures the barrier charges more than their slack.
                w = np.where(w > G / G.min() - 1.0, w, 0.0)
                w, phi, G, gap, h = self.face_newton(w / w.sum(), *self.evaluate(w / w.sum()))
        if gap > gap_tol:
            raise SolverError(
                f"plan solve stalled at relative gap {gap:.3e} "
                f"after {it} iterations (target {gap_tol:.1e})",
                gap=gap,
            )
        return w, it

    def face_newton(
        self, w: np.ndarray, phi: float, G: np.ndarray, gap: float, h: np.ndarray
    ) -> tuple[np.ndarray, float, np.ndarray, float, np.ndarray]:
        """Projected Newton polish of the plan w (Bertsekas 1982).

        Starts from the caller's ``evaluate(w)`` = (phi, G, gap, h), so w is
        not evaluated again.  phi is q-homogeneous, so its minimum over the
        simplex is that of phi(w) / (sum w)^q over w >= 0, where projecting
        is clipping at 0.  Each step solves the Newton KKT system of phi on
        an epsilon-active set: the support plus each zero weight whose
        reduced gradient gphi_i + nu (nu the multiplier of sum w = 1) is
        below -eps, eps the largest |gphi_i + nu| on the support.  It
        follows the projection arc t -> [w + t dw]^+ / sum, halving t from 1
        (and trying the arc's first kink) until phi decreases to rounding,
        so every weight the step zeroes leaves and every blocked row enters
        at once.  Returns a plan with its tuple as ``evaluate`` gives it:
        one that meets the simplex KKT conditions (gphi + nu zero on the
        support, nonnegative off it) to rounding if it narrows the gap or
        keeps phi (to 1e-14), else w; or the plan of least gap, w included,
        when no step lowers phi, the KKT system is singular, a step returns
        to a support it left at no higher phi (at large p, optimal weights
        can lie below what Newton resolves) or the step cap is reached.
        """
        start = best = (w, phi, G, gap, h)
        gphi = self.q * G
        nu = -self.q * phi  # = -w . gphi, the multiplier were w stationary
        stat = float(np.abs(gphi[w > 0] + nu).max())
        face, left = np.packbits(w > 0).tobytes(), {}  # face -> phi it was left at
        for _ in range(3 * len(w) + 8):
            scale = float(np.abs(gphi).max())  # no floor: phi can be 1e-20 at p=1.1
            free = (w > 0) | (gphi + nu < -max(stat, 1e-12 * scale))
            kkt = self.hessian(free, h)
            diag = kkt.reshape(-1)[:: len(kkt) + 1][:-1]  # H's diagonal, a view
            diag += 1e-14 * float(diag.sum()) / len(diag)
            step = _kkt_solve(kkt, -gphi[free], 1.0 - float(w.sum()))
            if step is None:
                return best
            dw, nu = step
            wf, v, t = w[free], np.zeros_like(w), 1.0
            kink = float((-wf[dw < 0] / dw[dw < 0]).min(initial=np.inf))
            for _ in range(60):
                v[free] = np.maximum(wf + t * dw, 0.0)
                v /= v.sum()
                phi_v, f_v, h_v = self.potential(v)
                if phi_v <= phi * (1.0 + _ROUNDING * self.q):
                    break
                t = kink if t / 2 < kink < t else t / 2
            else:
                return best
            G_v, gap_v = self.bracket(phi_v, f_v)
            if gap_v < best[3]:
                best = (v, phi_v, G_v, gap_v, h_v)
            key = np.packbits(v > 0).tobytes()
            if key != face and phi_v >= left.get(key, math.inf):
                return best
            left[face], face = phi, key
            w, phi, h, gphi = v, phi_v, h_v, self.q * G_v
            red = gphi + nu
            stat = float(np.abs(red[w > 0]).max())
            if float(red.min()) >= -1e-12 * scale and (
                stat <= 1e-13 * scale or t * float(np.abs(dw).max()) <= 1e-16
            ):
                kept = gap_v < start[3] or phi <= start[1] * (1.0 + 1e-14)
                return (w, phi, G_v, gap_v, h) if kept else start
        return best

    def barrier(
        self, w: np.ndarray, gap_tol: float, budget: int
    ) -> tuple[np.ndarray, int, tuple[float, np.ndarray, float, np.ndarray]]:
        """Log-barrier Newton path (Boyd & Vandenberghe, Convex Optimization, 11).

        Minimizes t phi(w) - sum_i log w_i on {sum w = 1} for t growing 20x
        per centering; each Newton step solves one (k+1)x(k+1) KKT system.
        Stops at a centered point whose bracket gap is at most gap_tol or
        whose suboptimality bound k / t is below 1e-12 phi, or after
        ``budget`` Newton steps; returns the last iterate, the steps and the
        iterate's ``evaluate`` tuple, kept along the path.
        """
        k = len(w)
        w = 0.5 * w + 0.5 / k
        phi, G, gap, h = self.evaluate(w)
        # Frank-Wolfe bound on phi(w) - min phi sets the first barrier weight.
        t = k / max(self.q * (phi - float(G.min())), 1e-300)
        steps = 0
        while steps < budget:
            for _ in range(min(50, budget - steps)):  # centering
                steps += 1
                grad = t * self.q * G - 1.0 / w
                kkt = self.hessian(np.ones(k, bool), h)
                kkt[:k, :k] *= t
                kkt.reshape(-1)[:: k + 2][:-1] += w**-2.0  # on H's diagonal
                step = _kkt_solve(kkt, -grad, 0.0)
                if step is None:
                    return w, steps, (phi, G, gap, h)
                dw = step[0]
                decrement = -float(grad @ dw)
                if decrement <= 1e-10:
                    break
                neg = dw < 0
                a = min(1.0, 0.99 * float((-w[neg] / dw[neg]).min(initial=np.inf)))
                merit = t * phi - float(np.log(w).sum())
                for _ in range(60):
                    w_new = w + a * dw
                    phi_new, f_new, h_new = self.potential(w_new)
                    if t * phi_new - np.log(w_new).sum() <= merit - a * decrement / 4:
                        break
                    a *= 0.5
                else:
                    break
                w, phi, h, (G, gap) = w_new, phi_new, h_new, self.bracket(phi_new, f_new)
            if k / t <= 1e-12 * phi or gap <= gap_tol:
                break
            t *= 20.0
        return w, steps, (phi, G, gap, h)

    def solution(
        self,
        w: np.ndarray,
        iterations: int,
        kept: Sequence[int],
        n_measures: int,
        dropped: tuple[int, ...] = (),
        low: float = 1.0,
    ) -> ModulusSolution:
        """Modulus solution read off plan weights w over the measures ``kept``.

        The density f = h^(q-1) rescaled by s = min_i <mu_i, f> is
        admissible; its energy is ``value``, the plan's content^p is
        ``dual_value`` and ``gap`` the relative width of that bracket plus
        a rounding allowance.  The multipliers p w_i / s^(p-1) satisfy the
        stationarity relation.  ``low`` < 1 is the least integral of f / s
        over a family larger than the rows of U; s is multiplied by it, so
        that f stays admissible for that family.
        """
        p, msk = self.p, self.space.positive_mask
        w = w / w.sum()
        _, f, h = self.potential(w)
        s = float((self.U @ f).min()) * low
        f = f / s
        value = float(np.dot(self.mpos, f**p))
        lower = float(np.dot(self.mpos, h**self.q)) ** (1.0 - p)
        f_out = np.zeros(self.space.n_points)
        f_out[msk] = f
        mults = np.zeros(n_measures)
        mults[kept] = p * w / s ** (p - 1.0)
        return ModulusSolution(
            value=value,
            f=f_out,
            multipliers=mults,
            iterations=iterations,
            gap=max(value - lower, 0.0) / value + _ROUNDING * p,
            dual_value=lower,
            dropped=dropped,
        )


def solve_modulus_explicit(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    p: float,
    *,
    gap_tol: float = 1e-9,
    max_iter: int = 100000,
) -> ModulusSolution:
    """Modulus of an explicit family, read off its optimal plan.

    Minimizes the barycenter norm ||sum_i w_i mu_i / m||_q over plans w
    (the content problem, see ``_PlanProblem``) and reads off the
    density f = h^(q-1), h the barycenter, rescaled by min_i <mu_i, f>
    so that it is admissible.  The modulus lies in the weak-duality
    bracket [content^p, ||f||_p^p]: ``value`` is the upper end,
    ``dual_value`` the lower and ``gap`` the relative width, at most
    gap_tol or SolverError is raised.
    """
    p = _check_p(p)
    _check_limits(gap_tol, cap=max_iter)
    U, kept, dropped, has_zero = _constraint_matrix(space, measures)
    if has_zero or not kept:
        return _trivial_solution(space, len(measures), dropped, has_zero)

    prob = _PlanProblem(space, U, p)
    w, it = prob.solve(np.full(len(kept), 1.0 / len(kept)), gap_tol, max_iter)
    return prob.solution(w, it, kept, len(measures), dropped)


def _primal_face_polish(
    U: np.ndarray, mpos: np.ndarray, p: float, f: np.ndarray
) -> np.ndarray | None:
    """Solve the energy minimization restricted to the face suggested by f.

    The end point of the oracle's barrier path picks the face: the
    constraints within 1e-7 of tight and the coordinates above 1e-10 of
    the largest (or of 1).  The barrier keeps every f_x > 0, also where
    the optimal f is 0, so the face finishes the job: on it the problem
    is an equality-constrained smooth minimization, and a few damped
    Newton steps reach machine precision.  Returns the polished density
    or None when the face guess is unusable.
    """
    free = f > 1e-10 * max(float(f.max()), 1.0)
    A = U[np.ix_(U @ f <= 1.0 + 1e-7, free)]
    if A.shape[1] == 0 or not np.all(A.any(axis=1)):
        return None
    x, mf = f[free], mpos[free]
    b = np.ones(A.shape[0])
    nu = np.zeros(A.shape[0])
    nfree = A.shape[1]
    for _ in range(60):
        grad = p * mf * x ** (p - 1.0)
        h = p * (p - 1.0) * mf * np.maximum(x, 1e-12) ** (p - 2.0)
        h = h + 1e-14 * max(float(h.max()), 1.0)
        kkt = np.block([[np.diag(h), A.T], [A, np.zeros((len(b), len(b)))]])
        rhs = np.concatenate([-(grad + A.T @ nu), b - A @ x])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        dx, dnu = sol[:nfree], sol[nfree:]
        t = min(1.0, 0.9995 * float((-x[dx < 0] / dx[dx < 0]).min(initial=np.inf)))
        x = x + t * dx
        nu = nu + dnu
        feas = float(np.abs(A @ x - b).max())
        stat = float(np.abs(grad + A.T @ nu).max())
        if feas <= 1e-14 and stat <= 1e-13 * max(1.0, float(np.abs(grad).max())):
            break
        if float(np.abs(t * dx).max()) <= 1e-16 * max(1.0, float(np.abs(x).max())):
            break
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        return None
    out = np.zeros_like(f)
    out[free] = x
    return out


def _solve_modulus_primal(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    p: float,
) -> tuple[float, np.ndarray | None]:
    """Primal test oracle: (value, f) by a log-barrier Newton path on f.

    Independent of the plan solve: on the points that some measure
    charges it minimizes t sum m_x f_x^p - sum_i log(<mu_i, f> - 1)
    - sum_x log f_x (Boyd & Vandenberghe, Convex Optimization, 11.3)
    from the strictly feasible f = 2 / (least row total).  Each
    centering takes damped Newton steps, the first at 0.99 of the
    distance to the boundary, until the Newton decrement is below 1e-9
    or the backtracking step below 1e-12; t then grows 100x, until the
    suboptimality bound n / t (n the number of log terms) is below
    1e-10 of the energy.  ``_primal_face_polish`` then solves on the
    face that end point picks, and the better of the two densities,
    rescaled by its least constraint value, is returned.  It gives no
    bracket, so it is no public solver and returns no
    ``ModulusSolution``: a zero measure gives (inf, None), a family with
    nothing left to constrain (0, zeros).
    """
    p = _check_p(p)
    U, kept, _, has_zero = _constraint_matrix(space, measures)
    if has_zero or not kept:
        return (math.inf, None) if has_zero else (0.0, np.zeros(space.n_points))

    msk = space.positive_mask
    mpos = space.measure[msk]
    on = U.any(axis=0)
    A, m = U[:, on], mpos[on]
    x = np.full(A.shape[1], 2.0 / A.sum(axis=1).min())
    s = A @ x - 1.0  # constraint slacks, kept positive by every step
    n_log = sum(A.shape)
    t = n_log / float(m @ x**p)
    while True:
        for _ in range(100):  # centering
            grad = t * p * m * x ** (p - 1.0) - A.T @ (1.0 / s) - 1.0 / x
            hess = (A.T / s**2) @ A
            hess[np.diag_indices_from(hess)] += (
                t * p * (p - 1.0) * m * x ** (p - 2.0) + x**-2.0
            )
            dx = np.linalg.solve(hess, -grad)
            decrement = -float(grad @ dx)
            if decrement <= 1e-9:
                break
            Adx = A @ dx
            rx, rs = dx / x, Adx / s
            a = 0.99 / max(float(-rx.min()), float(-rs.min()), 0.99)
            px = m * x**p
            while a >= 1e-12:  # the merit change, summed from relative steps
                change = (
                    t * float(px @ np.expm1(p * np.log1p(a * rx)))
                    - float(np.log1p(a * rs).sum() + np.log1p(a * rx).sum())
                )
                if change <= -a * decrement / 4:
                    break
                a *= 0.5
            else:
                break
            x, s = x + a * dx, s + a * Adx
        if n_log <= 1e-10 * t * float(m @ x**p):
            break
        t *= 100.0

    f = np.zeros(len(mpos))
    f[on] = x
    f /= float((U @ f).min())
    polished = _primal_face_polish(U, mpos, p, f)
    if polished is not None and (low := float((U @ polished).min())) > 0:
        f = min(polished / low, f, key=lambda c: float(mpos @ c**p))
    f_out = np.zeros(space.n_points)
    f_out[msk] = f
    return float(mpos @ f**p), f_out


def brute_force_lattice(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    p: float,
) -> tuple[float, float]:
    """Exhaustive lattice bracket [lower, upper] for the modulus.

    Enumerates f over a uniform lattice per positive-mass point.  The
    best feasible lattice point gives an upper bound; rounding the true
    optimum up to the lattice inflates the p-norm by at most one step,
    which turns the upper bound into a matching lower bound.  The
    lattice has 21^n points for n positive-mass points, so n is capped
    at 4; a larger space raises InvalidInstanceError before the lattice
    is allocated.
    """
    p = _check_p(p)
    U, kept, _, has_zero = _constraint_matrix(space, measures)
    if has_zero:
        return math.inf, math.inf
    if not kept:
        return 0.0, 0.0
    msk = space.positive_mask
    mpos = space.measure[msk]
    n = int(msk.sum())
    if n > 4:
        raise InvalidInstanceError(
            f"lattice oracle limited to at most 4 positive-mass points, got {n}"
        )
    totals = U.sum(axis=1)
    feas_value = (1.0 / totals.min()) ** p * mpos.sum()
    fmax = (feas_value / mpos.min()) ** (1.0 / p)
    axis = np.linspace(0.0, fmax, 21)
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    feasible = np.all(pts @ U.T >= 1.0 - 1e-12, axis=1)
    if not feasible.any():
        raise SolverError("lattice too coarse: no feasible point", gap=None)
    vals = (pts[feasible] ** p) @ mpos
    upper = float(vals.min())
    delta = axis[1] - axis[0]
    root = upper ** (1.0 / p) - delta * mpos.sum() ** (1.0 / p)
    lower = max(root, 0.0) ** p
    return lower, upper


def shortest_weighted_path(
    space: MetricMeasureSpace,
    f: Sequence[float],
    source: Sequence[int],
    target: Sequence[int],
    max_hops: int | None = None,
) -> tuple[tuple[int, ...], float] | None:
    """Path minimizing the curvilinear integral of f, or None if cut off.

    Edge (u, v) costs length * (f_u + f_v) / 2, so the path cost equals
    the integral of f against the path's node-projected line measure,
    accumulated edge by edge from the source; ``inf`` in f makes a point
    impassable at infinite cost.  ``max_hops`` bounds the edge count (a
    layered relaxation).  One tie rule holds with or without it: each
    point keeps its cheapest route with the fewest hops (the first
    found), and the answer is the cheapest target, then the fewest hops,
    then the smallest id; without ``max_hops`` it is the first target
    settled, so its path crosses no other target.  The hop rule matters
    where f is 0, where every route costs 0: the shortest ones are
    straight and disjoint, not branches of one shared tree.  Raises
    InvalidInstanceError unless f has one nonnegative entry per point,
    every endpoint is an integer point id and ``max_hops`` is None or an
    integer >= 1.
    """
    found = _cheapest_paths(space, f, source, target, max_hops)
    if not found:
        return None
    cost, path = found[0]
    return path, cost


def _cheapest_paths(
    space: MetricMeasureSpace,
    f: Sequence[float],
    source: Sequence[int],
    target: Sequence[int],
    max_hops: int | None = None,
    *,
    bound: float | None = None,
) -> list[tuple[float, tuple[int, ...]]]:
    """Cheapest path to each reachable target, as (cost, path) by cost.

    One Dijkstra pass from all sources at once (the layered relaxation
    under ``max_hops``), with the costs and tie rule documented in
    ``shortest_weighted_path``, which returns the first entry: targets
    come by cost, then hops, then id.  The Dijkstra heap key is (cost,
    hops, point).  Each point's best cost and hops sit in two lists, from
    (inf, inf), so a point at infinite cost is reached too; it takes a new
    predecessor only if that strictly lowers the pair, cost first.  Edges
    come from the space's adjacency tuples.  The path to one target may
    cross another; its constraint is then weaker than that of its prefix.
    ``bound`` keeps the targets cheaper than it, and ends the pass once
    the settled distance reaches it.
    """
    vals = np.asarray(f, dtype=float)
    if vals.shape != (space.n_points,):
        raise InvalidInstanceError(
            f"path weights need one entry per point, not {vals.shape}"
        )
    if not np.all(vals >= 0):  # also false on NaN; inf blocks a point
        raise InvalidInstanceError("path weights need a nonnegative density, not NaN")
    source, target = _point_ids(space, source), _point_ids(space, target)
    if max_hops is not None:
        _check_count(max_hops, "max_hops")
    half = (0.5 * vals).tolist()
    targets = set(target)
    sources = sorted(set(source))
    adj = space._adj  # per point, its (neighbor, length) pairs

    if max_hops is not None:
        best = {s: (0.0, (s,)) for s in sources}
        frontier = sources
        for _ in range(max_hops):
            nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
            for u in frontier:
                du, pu = best[u]
                for v, ell in adj[u]:
                    cost = du + ell * (half[u] + half[v])
                    cur = nxt.get(v, best.get(v))
                    if cur is None or cost < cur[0]:
                        nxt[v] = (cost, pu + (v,))
            best.update(nxt)
            frontier = sorted(nxt)
        found = sorted(
            (cost, len(path), t, path) for t, (cost, path) in best.items()
            if t in targets and (bound is None or cost < bound)
        )
        return [(cost, path) for cost, _, _, path in found]

    n, push, pop = space.n_points, heapq.heappush, heapq.heappop
    dist, hops = [math.inf] * n, [math.inf] * n  # inf, inf: no route yet
    pred = [-1] * n
    done = bytearray(n)
    for s in sources:
        dist[s], hops[s] = 0.0, 0
    heap = [(0.0, 0, s) for s in sources]
    out: list[tuple[float, tuple[int, ...]]] = []
    left = len(targets)
    while heap:
        d, k, u = pop(heap)
        if done[u]:
            continue
        if bound is not None and d >= bound:
            break
        done[u] = 1
        if u in targets:
            path = [u]
            while pred[path[-1]] >= 0:
                path.append(pred[path[-1]])
            out.append((d, tuple(reversed(path))))
            left -= 1
            if not left:
                break
        hu, k = half[u], k + 1
        for v, ell in adj[u]:
            if not done[v]:
                cost = d + ell * (hu + half[v])
                if cost < dist[v] or (cost == dist[v] and k < hops[v]):
                    dist[v], hops[v], pred[v] = cost, k, u
                    push(heap, (cost, k, v))
    return out


def _point_ids(space: MetricMeasureSpace, ids: Sequence[int]) -> list[int]:
    """Endpoint ids as plain ints; InvalidInstanceError unless each is a point id."""
    out = []
    for pt in ids:
        try:
            i = operator.index(pt)
        except TypeError:
            raise InvalidInstanceError(
                f"path endpoint {pt!r} is not an integer point id"
            ) from None
        if not 0 <= i < space.n_points:
            raise InvalidInstanceError(f"path endpoint {i} is not a point of the space")
        out.append(i)
    return out


def solve_modulus_paths(
    space: MetricMeasureSpace,
    source: Sequence[int],
    target: Sequence[int],
    p: float,
    max_hops: int | None = None,
    *,
    gap_tol: float = 1e-9,
    max_outer: int = 1000,
) -> ModulusSolution:
    """Modulus of the family of simple source-target paths.

    Constraint generation (Albin, Brunner, Perez, Poggi-Corradini & Wiens
    2015): solve on a working set of paths, then run one Dijkstra pass (edge
    weight f * length) that finds the cheapest path to every target, ties
    broken by fewest hops (see ``shortest_weighted_path``): f is 0 where no
    weighted working path passes, and there the fewest-hop paths are disjoint,
    so one round adds many that the next plan keeps.  Each round solves its
    plan to gap_tol / 2, and a path integrating f to less than
    1 - gap_tol / (2p) is violated.  With none violated, f is divided by the
    least integral that pass found, so that ``value``, ``dual_value`` and
    ``gap`` bracket the modulus of the whole family, and as
    (1 - gap_tol / 2)^2 >= 1 - gap_tol the relative width
    (value - dual_value) / value is at most gap_tol, or SolverError is raised.
    Otherwise the plan problem's ``renew`` drops the working paths at weight
    exactly 0 and adds every violated path not yet present.  Dropping inactive
    constraints leaves the working problem's unique optimal f unchanged, and
    each added path is violated by that f, so the working modulus rises
    strictly every round and no working set repeats.  Each round runs the plan
    solve of ``solve_modulus_explicit``, warm-started from the previous plan
    with the new paths at weight 0; after the first round that plan is
    polished by projected Newton before any gradient step, which often
    certifies the round at once.  ``iterations`` counts the projected-gradient
    and barrier steps over all rounds (Newton steps are not counted, so it can
    be 0), ``outer_iterations`` the rounds, and ``paths`` is the final working
    set, aligned with ``multipliers``: the paths of the last plan solve, some
    perhaps at weight 0, each ending at a target.  Disconnected endpoints give
    value 0 with the ``empty_family`` flag set.  Zero-mass points block paths
    for free (see ``_block_null_points``), so a family whose every path
    crosses one has modulus 0 and no working paths.
    """
    p = _check_p(p)
    _check_limits(gap_tol, cap=max_outer)
    # Zero-mass points are impassable for the oracle: a path through one
    # is satisfied for free, so only paths avoiding them constrain f.
    null = space.measure == 0
    probe = shortest_weighted_path(
        space, np.where(null, np.inf, 1.0), source, target, max_hops
    )
    if probe is None or math.isinf(probe[1]):
        # No path at all (empty family), or each crosses a zero-mass point.
        sol = _trivial_solution(space, 0, (), False)
        return replace(
            sol, f=_block_null_points(space, sol.f), empty_family=probe is None
        )
    if len(probe[0]) == 1:  # a one-point path has the zero line measure
        return replace(_trivial_solution(space, 1, (), True), paths=probe[:1])

    # Oracle paths have an edge and avoid zero-mass points: no row is dropped.
    working = [probe[0]]
    prob = _PlanProblem(space, _path_rows(space, working)[:, space.positive_mask], p)
    w, total_it, cut = np.ones(1), 0, 1.0 - gap_tol / (2 * p)  # cut: violated below
    for outer in range(1, max_outer + 1):
        at = prob.evaluate(w)
        if outer > 1:  # polish the previous optimum, new paths at weight 0
            w, *at = prob.face_newton(w, *at)
        w, it = prob.solve(w, gap_tol / 2, 100000, at)
        total_it += it
        rows = range(len(working))
        sol = prob.solution(w, total_it, rows, len(rows))
        found = _cheapest_paths(
            space, np.where(null, np.inf, sol.f), source, target, max_hops, bound=1.0
        )
        present = set(working)
        new = [pth for c, pth in found if c < cut and pth not in present]
        if not new:
            low = found[0][0] if found else 1.0  # the family minimum, if below 1
            sol = prob.solution(w, total_it, rows, len(rows), low=low)
            width = (sol.value - sol.dual_value) / sol.value
            if width <= gap_tol:
                return replace(
                    sol, f=_block_null_points(space, sol.f), paths=tuple(working),
                    outer_iterations=outer,
                )
            raise SolverError(
                f"path bracket width {width:.3e} above {gap_tol:.1e} (least path "
                f"integral {low:.12f})", gap=width,
            )
        keep = w > 0
        prob.renew(keep, _path_rows(space, new))
        working = [path for path, k in zip(working, keep) if k] + new
        w = np.concatenate([w[keep], np.zeros(len(new))])
    raise SolverError(
        f"constraint generation did not converge within {max_outer} rounds",
        gap=None,
    )


def _block_null_points(space: MetricMeasureSpace, f: np.ndarray) -> np.ndarray:
    """f made admissible for paths through zero-mass points, at no energy.

    f = 2 / (shortest edge at x) on each zero-mass point x gives every
    edge at x a cost of at least 1, so any path through x integrates f
    to at least 1; m_x = 0 leaves the energy unchanged.
    """
    f = f.copy()
    for x in np.nonzero(space.measure == 0)[0]:
        lengths = [ell for _, ell in space.neighbors(int(x))]
        if lengths:
            f[x] = 2.0 / min(lengths)
    return f


@dataclass(frozen=True)
class SaturatedSubfamily:
    indices: tuple[int, ...]
    measures: tuple[DiscreteMeasure, ...]


def saturated_subfamily(
    solution: ModulusSolution,
    measures: Sequence[DiscreteMeasure],
) -> SaturatedSubfamily:
    """Measures whose constraint is tight (to 1e-6) at the solved density.

    The saturated subfamily carries the same modulus as the original
    family.  That the optimal plan charges only saturated measures is
    audited by ``duality.check_optimality_conditions``.
    """
    if solution.f is None:
        raise InvalidInstanceError("saturated subfamily undefined for an infinite modulus")
    idx = tuple(i for i, mu in enumerate(measures) if abs(mu.integrate(solution.f) - 1.0) <= 1e-6)
    return SaturatedSubfamily(idx, tuple(measures[i] for i in idx))
