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
SolverError.  A primal projected descent on f and an exhaustive lattice
search stay as independent oracles for cross-checks on small instances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import SolverError
from .families import path_line_measure
from .space import DiscreteMeasure, MetricMeasureSpace

__all__ = [
    "ModulusSolution",
    "solve_modulus_explicit",
    "solve_modulus_primal",
    "brute_force_lattice",
    "solve_modulus_paths",
    "shortest_weighted_path",
    "mod_properties_check",
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
    its relative width (both NaN from the primal oracle).  Only path
    solves fill ``paths`` and ``outer_iterations``.
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


def _check_p(p: float) -> float:
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"modulus exponent must satisfy p > 1, got {p}")
    return float(p)


# Projected-gradient steps before the first face polish (the interval
# then doubles), the step count after which a failed polish hands over to
# the barrier, and the rounding allowance per unit of exponent in phi or
# in a bracket width, whose two ends are evaluated along different paths.
_FIRST_POLISH = 16
_FIRST_ORDER_CAP = 2000
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

    Row r of U is the r-th kept measure on the positive-mass columns.
    Returns U, the kept indices, the dropped ones (measures that charge a
    zero-mass point, met for free) and whether a zero measure is present.
    Raises ValueError for a measure that charges a point outside the space.
    """
    msk = space.positive_mask
    col_of = np.where(msk, np.cumsum(msk) - 1, -1).tolist()  # -1: zero mass
    U = np.zeros((len(measures), int(msk.sum())))
    kept: list[int] = []
    dropped: list[int] = []
    has_zero = False
    for i, mu in enumerate(measures):
        row, null = U[len(kept)], False
        for idx, w in mu.items:
            if idx >= space.n_points:
                raise ValueError(f"measure {i} charges point {idx} outside the space")
            if col_of[idx] < 0:
                null = True
            else:
                row[col_of[idx]] = w
        if mu.total == 0:
            has_zero = True
        elif null:
            dropped.append(i)
            row.fill(0.0)
        else:
            kept.append(i)
    return U[: len(kept)], kept, tuple(dropped), has_zero


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _kkt_solve(
    H: np.ndarray, rhs: np.ndarray, resid: float
) -> tuple[np.ndarray, float] | None:
    """Solve [[H, 1], [1^T, 0]] [dw; nu] = [rhs; resid], or None if singular."""
    n = H.shape[0]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = H
    kkt[n, n] = 0.0
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
    """

    def __init__(self, space: MetricMeasureSpace, U: np.ndarray, p: float):
        self.space, self.U, self.p = space, U, p
        self.q = p / (p - 1.0)
        self.mpos = space.measure[space.positive_mask]

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray, float]:
        """phi, the constraint values G and the bracket gap at w."""
        h = (w @ self.U) / self.mpos
        f = h ** (self.q - 1.0)
        G = self.U @ f
        phi = float(np.dot(self.mpos, h * f))
        s = float(G.min())
        gap = max(1.0 - (s / phi) ** self.p, 0.0) if s > 0 else 1.0
        return phi, G, gap

    def hessian(self, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Hessian of phi at w, restricted to the rows of the mask ``rows``."""
        q, h = self.q, (w @ self.U) / self.mpos
        coef = q * (q - 1.0) * np.maximum(h, 1e-12 * h.max()) ** (q - 2.0) / self.mpos
        Ur = self.U[rows]  # a copy, scaled in place: one temporary of this size
        Ur *= np.sqrt(coef)
        return Ur @ Ur.T

    def solve(
        self, w: np.ndarray, gap_tol: float, max_iter: int
    ) -> tuple[np.ndarray, int]:
        """Plan weights with bracket gap <= gap_tol, from the plan w.

        Projected gradient (Barzilai-Borwein steps, Armijo backtracking),
        polished by projected Newton (``face_newton``) after 16, 32, 64, ...
        steps; a polish is kept when it narrows the gap or keeps phi.  When
        polishing fails, a log-barrier Newton path finds the support and
        the polish finishes on it.  ``max_iter`` bounds the gradient and
        barrier steps together.  Returns the weights and the step count, or
        raises SolverError when the gap stays above gap_tol.
        """
        phi, G, gap = self.evaluate(w)

        def polish(w, phi, G, gap):
            refined = self.face_newton(w)
            if refined is not None:
                cand = self.evaluate(refined)
                if cand[2] < gap or cand[0] <= phi * (1.0 + 1e-14):
                    return (refined, *cand)
            return w, phi, G, gap

        step, it, next_polish = 1.0, 0, _FIRST_POLISH
        while gap > gap_tol and it < max_iter:
            it += 1
            grad = self.q * G
            trial = step
            for _ in range(60):
                w_new = _project_simplex(w - trial * grad)
                phi_new, G_new, gap_new = self.evaluate(w_new)
                if phi_new <= phi + 1e-4 * float(grad @ (w_new - w)) or phi_new < phi:
                    break
                trial *= 0.5
            else:  # the line search failed: polish, else hand over to the barrier
                w, phi, G, gap = polish(w, phi, G, gap)
                break
            d_w, d_grad = w_new - w, self.q * G_new - grad
            w, phi, G, gap = w_new, phi_new, G_new, gap_new
            denom = float(d_grad @ d_grad)  # Barzilai-Borwein step, safeguarded
            bb = abs(float(d_w @ d_grad)) / denom if denom else 2 * trial
            step = min(max(bb, 1e-12), 1e12)
            if gap > gap_tol and it >= next_polish:
                w, phi, G, gap = polish(w, phi, G, gap)
                if it >= _FIRST_ORDER_CAP:
                    break
                next_polish *= 2
        if gap > gap_tol and it < max_iter:
            w, steps = self.barrier(w, gap_tol, max_iter - it)
            it += steps
            phi, G, gap = self.evaluate(w)
            if gap > gap_tol:
                # Keep the measures the barrier charges more than their slack.
                w = np.where(w > G / G.min() - 1.0, w, 0.0)
                w, phi, G, gap = polish(w / w.sum(), *self.evaluate(w / w.sum()))
        if gap > gap_tol:
            raise SolverError(
                f"plan solve stalled at relative gap {gap:.3e} "
                f"after {it} iterations (target {gap_tol:.1e})",
                gap=gap,
            )
        return w, it

    def face_newton(self, w: np.ndarray) -> np.ndarray | None:
        """Projected Newton refinement of the plan w (Bertsekas 1982).

        phi is q-homogeneous, so its minimum over the simplex is that of
        phi(w) / (sum w)^q over w >= 0, where projecting is clipping at 0.
        Each step solves the Newton KKT system of phi on an epsilon-active
        set: the support plus each zero weight whose reduced gradient
        gphi_i + nu (nu the multiplier of sum w = 1) is below -eps, eps the
        largest |gphi_i + nu| on the support.  It follows the projection
        arc t -> [w + t dw]^+ / sum, halving t from 1 (and trying the
        arc's first kink) until phi decreases to rounding, so every weight
        the step zeroes leaves and every blocked row enters at once.
        Returns weights that meet the simplex KKT conditions (gphi + nu
        zero on the support, nonnegative off it) to rounding, or None when
        no step lowers phi or a step returns to a support it left (at
        large p, optimal weights can lie below what Newton resolves).
        """
        w = w / w.sum()
        phi, G, _ = self.evaluate(w)
        gphi = self.q * G
        nu = -self.q * phi  # = -w . gphi, the multiplier were w stationary
        stat = float(np.abs(gphi[w > 0] + nu).max())
        face, left = np.packbits(w > 0).tobytes(), set()
        for _ in range(3 * len(w) + 8):
            scale = float(np.abs(gphi).max())  # no floor: phi can be 1e-20 at p=1.1
            free = (w > 0) | (gphi + nu < -max(stat, 1e-12 * scale))
            Hf = self.hessian(w, free)
            nf = Hf.shape[0]
            Hf[np.diag_indices(nf)] += 1e-14 * float(np.trace(Hf)) / nf
            step = _kkt_solve(Hf, -gphi[free], 1.0 - float(w.sum()))
            if step is None:
                return None
            dw, nu = step
            wf, v, t = w[free], np.zeros_like(w), 1.0
            kink = float((-wf[dw < 0] / dw[dw < 0]).min(initial=np.inf))
            for _ in range(60):
                v[free] = np.maximum(wf + t * dw, 0.0)
                v /= v.sum()
                phi_v, G_v, _ = self.evaluate(v)
                if phi_v <= phi * (1.0 + _ROUNDING * self.q):
                    break
                t = kink if t / 2 < kink < t else t / 2
            else:
                return None
            key = np.packbits(v > 0).tobytes()
            if key != face and key in left:
                return None
            left.add(face)
            face = key
            w, phi, gphi = v, phi_v, self.q * G_v
            red = gphi + nu
            stat = float(np.abs(red[w > 0]).max())
            if float(red.min()) >= -1e-12 * scale and (
                stat <= 1e-13 * scale or t * float(np.abs(dw).max()) <= 1e-16
            ):
                return w
        return None

    def barrier(
        self, w: np.ndarray, gap_tol: float, budget: int
    ) -> tuple[np.ndarray, int]:
        """Log-barrier Newton path (Boyd & Vandenberghe, Convex Optimization, 11).

        Minimizes t phi(w) - sum_i log w_i on {sum w = 1} for t growing 20x
        per centering; each Newton step solves one (k+1)x(k+1) KKT system.
        Stops at a centered point whose bracket gap is at most gap_tol or
        whose suboptimality bound k / t is below 1e-12 phi, or after
        ``budget`` Newton steps; returns the last iterate and the steps.
        """
        k = len(w)
        w = 0.5 * w + 0.5 / k
        phi, G, _ = self.evaluate(w)
        # Frank-Wolfe bound on phi(w) - min phi sets the first barrier weight.
        t = k / max(self.q * (phi - float(G.min())), 1e-300)
        steps = 0
        while steps < budget:
            for _ in range(min(50, budget - steps)):  # centering
                steps += 1
                grad = t * self.q * G - 1.0 / w
                hess = t * self.hessian(w, np.ones(k, bool)) + np.diag(w**-2.0)
                step = _kkt_solve(hess, -grad, 0.0)
                if step is None:
                    return w, steps
                dw = step[0]
                decrement = -float(grad @ dw)
                if decrement <= 1e-10:
                    break
                neg = dw < 0
                a = min(1.0, 0.99 * float((-w[neg] / dw[neg]).min(initial=np.inf)))
                merit = t * phi - float(np.log(w).sum())
                for _ in range(60):
                    w_new = w + a * dw
                    phi_new, G_new, _ = self.evaluate(w_new)
                    if t * phi_new - np.log(w_new).sum() <= merit - a * decrement / 4:
                        break
                    a *= 0.5
                else:
                    break
                w, phi, G = w_new, phi_new, G_new
            if k / t <= 1e-12 * phi or self.evaluate(w)[2] <= gap_tol:
                break
            t *= 20.0
        return w, steps

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
        h = (w @ self.U) / self.mpos
        f = h ** (self.q - 1.0)
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
    U, kept, dropped, has_zero = _constraint_matrix(space, measures)
    if has_zero or not kept:
        return _trivial_solution(space, len(measures), dropped, has_zero)

    prob = _PlanProblem(space, U, p)
    w, it = prob.solve(np.full(len(kept), 1.0 / len(kept)), gap_tol, max_iter)
    return prob.solution(w, it, kept, len(measures), dropped)


def _dykstra_project(y: np.ndarray, U: np.ndarray, row_sq: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {f >= 0} intersect {U f >= 1} (Dykstra)."""
    k = U.shape[0]
    x = y.copy()
    incs = [np.zeros_like(y) for _ in range(k + 1)]
    for _ in range(400):
        moved = 0.0
        for i in range(k):
            if not incs[i].any():
                # identity projection is free when already inside
                if float(U[i] @ x) >= 1.0:
                    continue
            z = x + incs[i]
            viol = 1.0 - float(U[i] @ z)
            xi = z + (viol / row_sq[i]) * U[i] if viol > 0 else z
            incs[i] = z - xi
            moved = max(moved, float(np.max(np.abs(xi - x))))
            x = xi
        z = x + incs[k]
        xi = np.maximum(z, 0.0)
        incs[k] = z - xi
        moved = max(moved, float(np.max(np.abs(xi - x))))
        x = xi
        if moved <= 1e-14 * max(1.0, float(np.max(np.abs(x)))):
            if float((U @ x).min()) >= 1.0 - 1e-12:
                break
    return x


def _primal_face_polish(
    U: np.ndarray, mpos: np.ndarray, p: float, f: np.ndarray
) -> np.ndarray | None:
    """Solve the energy minimization restricted to the face suggested by f.

    Near a plateau the projected-descent iterate identifies which
    constraints are tight and which coordinates vanish.  On that face
    the problem is an equality-constrained smooth minimization, so a
    few damped Newton steps reach machine precision.  Returns the
    polished density or None when the face guess is unusable.
    """
    vals = U @ f
    active = np.where(vals <= 1.0 + 1e-7)[0]
    if active.size == 0:
        active = np.array([int(np.argmin(vals))])
    fmax = float(f.max()) if f.size else 0.0
    free = f > 1e-10 * max(fmax, 1.0)
    A = U[np.ix_(active, np.where(free)[0])]
    if A.shape[1] == 0 or not np.all(A.any(axis=1)):
        return None
    x = np.maximum(f[free], 1e-12)
    mf = mpos[free]
    b = np.ones(A.shape[0])
    nu = np.zeros(A.shape[0])
    nfree = A.shape[1]
    for _ in range(60):
        grad = p * mf * x ** (p - 1.0)
        h = p * (p - 1.0) * mf * np.maximum(x, 1e-12) ** (p - 2.0)
        h = h + 1e-14 * max(float(h.max()), 1.0)
        kkt = np.zeros((nfree + A.shape[0],) * 2)
        kkt[:nfree, :nfree] = np.diag(h)
        kkt[:nfree, nfree:] = A.T
        kkt[nfree:, :nfree] = A
        rhs = np.concatenate([-(grad + A.T @ nu), b - A @ x])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        dx, dnu = sol[:nfree], sol[nfree:]
        t = 1.0
        neg = dx < 0
        if neg.any():
            t = min(1.0, 0.9995 * float((-x[neg] / dx[neg]).min()))
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


def solve_modulus_primal(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    p: float,
) -> ModulusSolution:
    """Primal cross-solver: projected descent on the density f.

    Independent of the plan solve: works on the admissible polyhedron
    {f >= 0, <mu_i, f> >= 1} directly, stepping along the energy
    gradient and projecting back with Dykstra's algorithm.  Meant for
    cross-validation on small instances at moderate p (the selftest
    uses 1.5 to 3).  It is not sound at the ends of p: it gives no
    bracket, and on small random families it has overshot the
    certified modulus by 4-13% at p = 1.05 and by a factor of 4.8 at
    p = 12, and raised on an infeasible density at p = 12.
    """
    p = _check_p(p)
    U, kept, dropped, has_zero = _constraint_matrix(space, measures)
    if has_zero or not kept:
        return _trivial_solution(space, len(measures), dropped, has_zero)

    msk = space.positive_mask
    mpos = space.measure[msk]
    row_sq = np.einsum("ij,ij->i", U, U)

    totals = U.sum(axis=1)
    f = np.full(U.shape[1], 1.0 / totals.min())
    obj = float(np.dot(mpos, f**p))
    step = 1.0
    it = 0
    for it in range(1, 20001):
        grad = p * mpos * f ** (p - 1.0)
        trial = step
        accepted = False
        for _ in range(60):
            f_new = _dykstra_project(f - trial * grad, U, row_sq)
            obj_new = float(np.dot(mpos, f_new**p))
            if obj_new <= obj - 1e-4 * float(np.dot(grad, f - f_new)) or obj_new < obj:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        d_f = f_new - f
        g_new = p * mpos * f_new ** (p - 1.0)
        d_g = g_new - grad
        denom = float(np.dot(d_g, d_g))
        step = (
            min(max(abs(float(np.dot(d_f, d_g))) / denom, 1e-12), 1e10)
            if denom > 0
            else trial * 2.0
        )
        rel = (obj - obj_new) / max(1.0, obj)
        f, obj = f_new, obj_new
        if 0 <= rel <= 1e-12 and it > 10:
            break

    def rescaled(cand: np.ndarray) -> tuple[float, np.ndarray] | None:
        s_c = float((U @ cand).min())
        if s_c <= 0:
            return None
        scaled = cand / s_c
        return float(np.dot(mpos, scaled**p)), scaled

    best = rescaled(f)
    if best is None:
        raise SolverError("primal solver produced an infeasible density", gap=None)
    polished = _primal_face_polish(U, mpos, p, f)
    if polished is not None:
        alt = rescaled(polished)
        if alt is not None and alt[0] <= best[0]:
            best = alt
    value, f = best
    f_out = np.zeros(space.n_points)
    f_out[msk] = f
    return ModulusSolution(
        value=value,
        f=f_out,
        multipliers=None,
        iterations=it,
        gap=math.nan,
        dual_value=math.nan,
        dropped=dropped,
    )


def brute_force_lattice(
    space: MetricMeasureSpace,
    measures: Sequence[DiscreteMeasure],
    p: float,
) -> tuple[float, float]:
    """Exhaustive lattice bracket [lower, upper] for the modulus.

    Enumerates f over a uniform lattice per positive-mass point.  The
    best feasible lattice point gives an upper bound; rounding the true
    optimum up to the lattice inflates the p-norm by at most one step,
    which turns the upper bound into a matching lower bound.  Only
    sensible for a handful of points.
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
    if n > 6:
        raise ValueError("lattice oracle limited to at most 6 positive-mass points")
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
    impassable at infinite cost.  Ties: the Dijkstra heap settles equal
    distances in point-id order, each point keeps the first predecessor
    that reaches its final distance, and the first target settled is
    returned, so its path crosses no other target.  With ``max_hops``, a
    layered relaxation bounds the edge count: each point keeps the
    cheapest route with the fewest hops (the first found, relaxing from
    points in id order), and the answer is the cheapest target, then the
    fewest hops, then the smallest id.
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
    come in settle order (by cost, hops and id under ``max_hops``).  The
    path to one target may cross another; its constraint is then weaker
    than that of its prefix.  ``bound`` keeps the targets cheaper than
    it, and ends the pass once the settled distance reaches it.
    """
    vals = np.asarray(f, dtype=float)
    if not np.all(vals >= 0):  # also false on NaN; inf blocks a point
        raise ValueError("path weights need a nonnegative density, not NaN")
    half = (0.5 * vals).tolist()
    targets = set(target)
    sources = sorted(set(source))

    if max_hops is not None:
        best = {s: (0.0, (s,)) for s in sources}
        frontier = sources
        for _ in range(max_hops):
            nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
            for u in frontier:
                du, pu = best[u]
                for v, ell in space.neighbors(u):
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

    n = space.n_points
    dist: list[float | None] = [None] * n
    pred = [-1] * n
    done = bytearray(n)
    for s in sources:
        dist[s] = 0.0
    heap = [(0.0, s) for s in sources]
    out: list[tuple[float, tuple[int, ...]]] = []
    left = len(targets)
    while heap:
        d, u = heapq.heappop(heap)
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
        hu = half[u]
        for v, ell in space.neighbors(u):
            if not done[v]:
                cost = d + ell * (hu + half[v])
                old = dist[v]
                if old is None or cost < old:
                    dist[v], pred[v] = cost, u
                    heapq.heappush(heap, (cost, v))
    return out


def solve_modulus_paths(
    space: MetricMeasureSpace,
    source: Sequence[int],
    target: Sequence[int],
    p: float,
    max_hops: int | None = None,
    *,
    gap_tol: float = 1e-9,
    feas_tol: float = 1e-9,
    max_outer: int = 1000,
) -> ModulusSolution:
    """Modulus of the family of simple source-target paths.

    Constraint generation (Albin, Brunner, Perez, Poggi-Corradini &
    Wiens 2015): solve on a working set of paths, then run one Dijkstra
    pass (edge weight f * length) that finds the cheapest path to every
    target; stop when every path integrates f to at least 1 - feas_tol,
    then divide f by the least integral that pass found, so that ``value``,
    ``dual_value`` and ``gap`` bracket the modulus of the whole family.
    Otherwise the round drops the working paths at plan weight exactly 0
    and adds every violated path not yet present.  Dropping inactive
    constraints leaves the working problem's unique optimal f unchanged,
    and each added path is violated by that f, so the working modulus
    rises strictly every round and no working set repeats.  Each round
    runs the plan solve of ``solve_modulus_explicit``, warm-started from
    the previous plan with the new paths at weight 0; ``iterations``
    counts its steps over all rounds, ``outer_iterations`` the rounds, and
    ``paths`` is the final working set, aligned with ``multipliers``: the
    paths of the last plan solve, some perhaps at weight 0, each ending at
    a target.  Disconnected endpoints give value 0 with the
    ``empty_family`` flag set.  Zero-mass points block paths for free (see
    ``_block_null_points``), so a family whose every path crosses one has
    modulus 0 and no working paths.
    """
    p = _check_p(p)
    for pt in (*source, *target):
        if not (0 <= int(pt) < space.n_points):
            raise ValueError(f"path endpoint {pt} is not a point of the space")
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

    working = [probe[0]]
    U = _constraint_matrix(space, [path_line_measure(space, probe[0])])[0]
    w = np.ones(1)
    total_it = 0
    for outer in range(1, max_outer + 1):
        prob = _PlanProblem(space, U, p)
        w, it = prob.solve(w, gap_tol, max_iter=100000)
        total_it += it
        rows = range(len(working))
        sol = prob.solution(w, total_it, rows, len(rows))
        found = _cheapest_paths(
            space, np.where(null, np.inf, sol.f), source, target, max_hops, bound=1.0
        )
        present = set(working)
        new = [pth for c, pth in found if c < 1.0 - feas_tol and pth not in present]
        if not new:
            low = found[0][0] if found else 1.0  # the family minimum, if below 1
            if low >= 1.0 - 10 * feas_tol:  # f / low is admissible for the family
                sol = prob.solution(w, total_it, rows, len(rows), low=low)
                return replace(
                    sol, f=_block_null_points(space, sol.f), paths=tuple(working),
                    outer_iterations=outer,
                )
            raise SolverError(
                f"constraint generation stalled on a repeated path "
                f"(integral {low:.12f})",
                gap=1.0 - low,
            )
        keep = w > 0
        n_keep = int(keep.sum())
        U_next = np.empty((n_keep + len(new), U.shape[1]))
        np.compress(keep, U, axis=0, out=U_next[:n_keep])
        U_next[n_keep:] = _constraint_matrix(
            space, [path_line_measure(space, path) for path in new]
        )[0]
        U = U_next
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


_NULL_TOL = 1e-10  # a modulus at most this counts as null


@dataclass(frozen=True)
class ModPropertiesReport:
    mod_a: float
    mod_b: float
    mod_union: float
    chain_values: tuple[float, ...]
    monotone_ok: bool
    subadditive_ok: bool
    chain_ok: bool
    scaling_null_ok: bool | None
    scaling_values: tuple[float, ...] = ()

    @property
    def all_ok(self) -> bool:
        checks = [self.monotone_ok, self.subadditive_ok, self.chain_ok]
        if self.scaling_null_ok is not None:
            checks.append(self.scaling_null_ok)
        return all(checks)


def mod_properties_check(
    space: MetricMeasureSpace,
    family_a: Sequence[DiscreteMeasure],
    family_b: Sequence[DiscreteMeasure],
    p: float,
) -> ModPropertiesReport:
    """Numeric check of the outer-measure behavior of the modulus.

    Verifies monotonicity (A and B against A union B), countable
    subadditivity (finite form), monotone approximation along the
    nested chain A, A + half of B, A + B, each to 1e-7 relative, and
    scaling-invariance of null families (only evaluated when
    Mod(A) <= 1e-10).
    """

    def solve(ms: Sequence[DiscreteMeasure]) -> float:
        return solve_modulus_explicit(space, ms, p).value

    union = list(family_a) + [
        mu for mu in family_b if mu not in family_a
    ]
    mod_a = solve(family_a)
    mod_b = solve(family_b)
    mod_u = solve(union)
    half = list(family_a) + [
        mu for mu in family_b[: (len(family_b) + 1) // 2] if mu not in family_a
    ]
    chain = (mod_a, solve(half), mod_u)
    slack = 1e-7 * max(1.0, *(v for v in (mod_a, mod_b, mod_u) if math.isfinite(v)))
    monotone = mod_a <= mod_u + slack and mod_b <= mod_u + slack
    subadd = mod_u <= mod_a + mod_b + slack
    chain_ok = chain[0] <= chain[1] + slack and chain[1] <= chain[2] + slack
    scaling_ok = None
    scaling_vals: tuple[float, ...] = ()
    if mod_a <= _NULL_TOL:
        vals = []
        for c in (0.5, 2.0):
            vals.append(solve([mu.scaled(c) for mu in family_a]))
        scaling_vals = tuple(vals)
        scaling_ok = all(v <= _NULL_TOL for v in vals)
    return ModPropertiesReport(
        mod_a,
        mod_b,
        mod_u,
        chain,
        monotone,
        subadd,
        chain_ok,
        scaling_ok,
        scaling_vals,
    )


@dataclass(frozen=True)
class SaturatedSubfamily:
    indices: tuple[int, ...]
    measures: tuple[DiscreteMeasure, ...]
    includes_all_active: bool


def saturated_subfamily(
    solution: ModulusSolution,
    measures: Sequence[DiscreteMeasure],
) -> SaturatedSubfamily:
    """Measures whose constraint is tight (to 1e-6) at the solved density.

    The saturated subfamily carries the same modulus as the original
    family; every measure with a positive multiplier must appear in it
    (complementary slackness).
    """
    if solution.f is None:
        raise ValueError("saturated subfamily undefined for an infinite modulus")
    idx = []
    for i, mu in enumerate(measures):
        if abs(mu.integrate(solution.f) - 1.0) <= 1e-6:
            idx.append(i)
    chosen = set(idx)
    includes = True
    if solution.multipliers is not None:
        scale = max(1.0, float(np.max(solution.multipliers, initial=0.0)))
        for i, lam in enumerate(solution.multipliers):
            if lam > 1e-8 * scale and i not in chosen:
                includes = False
    return SaturatedSubfamily(
        tuple(idx), tuple(measures[i] for i in idx), includes
    )
