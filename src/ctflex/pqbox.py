"""Decoupled rectangular P-Q flexibility via exploratory box expansion.

A cross-section of the flexibility tube at a fixed time is a star-shaped
region assembled from the sampled boundary points and the chords between
neighbouring feasible directions.  The search starts from an interior
point picked by the shape of the feasible piece, pushes the four box sides
outward, and whenever a corner leaves the region, retracts the offending
side and divides its step by ten until every side's step falls below the
tolerance.  Corner-only membership tests mirror the published procedure;
an optional edge-sampling mode guards non-convex cross-sections.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .engine import FlexTube

__all__ = [
    "FunctionOracle", "PqBox", "cross_section", "initial_point", "expand_box",
]

_ANGLE_TOL = 1e-9


class FunctionOracle:
    """Wrap a plain membership callable (analytic test regions)."""

    def __init__(self, fn):
        self._fn = fn

    def contains(self, p: float, q: float) -> bool:
        return bool(self._fn(p, q))


class TubeSectionOracle:
    """Membership in the tube cross-section at time t0.

    A point belongs to the section when its direction falls between two
    feasible sampled directions and its radius does not exceed the chord
    between their boundary points along its ray.  The origin is a member
    whenever any direction is feasible.

    ``thetas``, ``radii`` (NaN in gaps) and ``feasible`` are arrays for
    callers; membership tests run on plain-float copies made once here, so
    each call is a bisection and a few ``math`` operations.
    """

    def __init__(self, tube: FlexTube, t0: float, tol: float = 1e-9):
        if not tube.t1 - 1e-9 <= t0 <= tube.t2 + 1e-9:
            raise ValueError(f"time {t0} outside horizon [{tube.t1}, {tube.t2}]")
        self.t0 = float(t0)
        self.tol = tol
        self.thetas = tube.directions
        self.radii = np.array([
            tube.radius(k, t0) if tube.slices[k].feasible else np.nan
            for k in range(len(tube.slices))
        ])
        self.feasible = ~np.isnan(self.radii)
        self._thetas = self.thetas.tolist()
        self._radii = [float(r) if ok else None
                       for r, ok in zip(self.radii, self.feasible)]
        self._any_feasible = bool(np.any(self.feasible))
        # chord between sampled directions lo and lo + 1 (wrapping past
        # 2 pi): (theta_lo, theta_hi, r_lo, r_hi, r_lo r_hi sin(span)),
        # or None when either end is a gap
        two_pi = 2 * math.pi
        n = len(self._thetas)
        self._sectors = []
        for lo in range(n):
            hi = (lo + 1) % n
            r_lo, r_hi = self._radii[lo], self._radii[hi]
            if r_lo is None or r_hi is None:
                self._sectors.append(None)
                continue
            th_lo = self._thetas[lo]
            th_hi = self._thetas[hi] if hi > lo else self._thetas[hi] + two_pi
            self._sectors.append((th_lo, th_hi, r_lo, r_hi,
                                  r_lo * r_hi * math.sin(th_hi - th_lo)))

    def boundary_radius(self, theta: float) -> float | None:
        """Radius of the section boundary along direction theta, or None
        inside a gap."""
        thetas = self._thetas
        theta = float(theta) % (2 * math.pi)
        hi = bisect_left(thetas, theta)
        # the first sampled direction within the angle tolerance wins;
        # rounded differences are monotone, so matches are contiguous
        # around the insertion point
        k = hi
        while k > 0 and abs(thetas[k - 1] - theta) <= _ANGLE_TOL:
            k -= 1
        if k < hi or (hi < len(thetas)
                      and abs(thetas[hi] - theta) <= _ANGLE_TOL):
            return self._radii[k]
        # below the first or above the last direction, hi - 1 picks the
        # sector that wraps past 2 pi
        sector = self._sectors[hi - 1]
        if sector is None:
            return None
        th_lo, th_hi, r_lo, r_hi, num = sector
        th = theta if theta >= th_lo else theta + 2 * math.pi
        if r_lo == 0.0 and r_hi == 0.0:
            return 0.0
        # ray-chord crossing in polar form
        denom = r_lo * math.sin(th - th_lo) + r_hi * math.sin(th_hi - th)
        if denom <= 0.0:
            return 0.0
        return num / denom

    def contains(self, p: float, q: float) -> bool:
        r = math.hypot(p, q)
        if r <= self.tol:
            return self._any_feasible
        bound = self.boundary_radius(math.atan2(q, p))
        if bound is None:
            return False
        return r <= bound + self.tol * max(1.0, bound)


def cross_section(tube: FlexTube, t0: float) -> TubeSectionOracle:
    """Membership oracle for the tube's P-Q region at time t0."""
    return TubeSectionOracle(tube, t0)


def _feasible_pieces(thetas: np.ndarray, feasible: np.ndarray) -> list:
    """Maximal runs of consecutive feasible sampled directions, with
    wraparound; each piece is a list of indices."""
    n = len(thetas)
    idx = [k for k in range(n) if feasible[k]]
    if not idx:
        return []
    if len(idx) == n:
        return [list(range(n))]
    pieces, current = [], [idx[0]]
    for k in idx[1:]:
        if k == current[-1] + 1:
            current.append(k)
        else:
            pieces.append(current)
            current = [k]
    pieces.append(current)
    # merge the wraparound pair
    if len(pieces) > 1 and pieces[0][0] == 0 and pieces[-1][-1] == n - 1:
        pieces[0] = pieces.pop() + pieces[0]
    return pieces


def initial_point(section: TubeSectionOracle) -> tuple:
    """Interior starting point for the box search in a tube cross-section.

    All directions feasible: the midpoint of the longest chord through the
    origin among the sampled direction pairs.  Otherwise take the largest
    contiguous feasible piece: its mid-direction boundary point scaled by
    half when the piece spans at most pi, else half of its largest sampled
    boundary radius along that radius' direction.
    """
    thetas, radii, feasible = section.thetas, section.radii, section.feasible
    if not np.any(feasible):
        raise ValueError(f"no feasible direction at t = {section.t0}")
    n = len(thetas)
    if np.all(feasible) and n % 2 == 0:
        # antipodal pairs: midpoint of the longest chord through the origin
        half = n // 2
        spans = radii[:half] + radii[half:]
        k = int(np.argmax(spans))
        mid = 0.5 * (radii[k] - radii[k + half])
        return (mid * math.cos(thetas[k]), mid * math.sin(thetas[k]))
    pieces = _feasible_pieces(thetas, feasible)
    piece = max(pieces, key=len)
    piece_thetas = np.array([thetas[k] for k in piece])
    # unwrap so the run is monotone despite crossing 0
    for i in range(1, len(piece_thetas)):
        if piece_thetas[i] < piece_thetas[i - 1]:
            piece_thetas[i:] += 2 * math.pi
    width = piece_thetas[-1] - piece_thetas[0]
    if width <= math.pi + _ANGLE_TOL:
        mid_theta = 0.5 * (piece_thetas[0] + piece_thetas[-1])
        r = section.boundary_radius(mid_theta)
        r = 0.0 if r is None else r
        return (0.5 * r * math.cos(mid_theta), 0.5 * r * math.sin(mid_theta))
    k_best = max(piece, key=lambda k: radii[k])
    r = radii[k_best]
    return (0.5 * r * math.cos(thetas[k_best]),
            0.5 * r * math.sin(thetas[k_best]))


@dataclass(frozen=True)
class PqBox:
    """Axis-aligned rectangle with all four corners inside the region.

    p_max/p_min/q_max/q_min are the final side positions; ``iterations``
    counts membership rounds; ``frozen_reasons`` records the step at which
    each side froze.
    """

    p_max: float
    p_min: float
    q_max: float
    q_min: float
    t0: float
    iterations: int
    frozen_reasons: dict

    def corners(self) -> list:
        return [(self.p_max, self.q_max), (self.p_max, self.q_min),
                (self.p_min, self.q_max), (self.p_min, self.q_min)]

    def as_dict(self) -> dict:
        return {"t0": self.t0, "P1": self.p_max, "P2": self.p_min,
                "Q1": self.q_max, "Q2": self.q_min,
                "iterations": self.iterations,
                "frozen_reasons": self.frozen_reasons}


# side order: P-up, P-down, Q-up, Q-down
_SIGNS = (1.0, -1.0, 1.0, -1.0)
_SIDE_NAMES = ("P1", "P2", "Q1", "Q2")


def expand_box(oracle, start, delta: float, eps: float,
               t0: float = 0.0, edge_samples: int = 0,
               max_rounds: int = 1_000_000) -> PqBox:
    """Grow the largest locally-maximal axis-aligned box around ``start``.

    ``oracle`` is any object whose ``contains(p, q)`` tests membership in
    the region at a fixed time.

    Every round advances all unfrozen sides simultaneously by their own
    steps (initialized to ``delta``) and tests the four corners (plus
    sampled edge points when ``edge_samples`` > 0).  A failed corner blames
    the advancing side(s) whose retraction repairs it; blamed sides retract
    and divide their step by ten, freezing at or below ``eps``.  Terminates
    with every side frozen: all corners are members and pushing any
    non-degenerate side outward by 10 eps leaves the region.
    """
    p0, q0 = float(start[0]), float(start[1])
    if not oracle.contains(p0, q0):
        raise ValueError(f"start point ({p0}, {q0}) is not inside the region")
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    sides = [p0, p0, q0, q0]        # P1, P2, Q1, Q2
    steps = [float(delta)] * 4
    frozen = [False] * 4
    reasons: dict = {}
    iterations = 0

    fracs = (np.linspace(0, 1, edge_samples + 2)[1:-1].tolist()
             if edge_samples > 0 else [])
    contains = oracle.contains

    def edges_ok(vals) -> bool:
        p_hi, p_lo, q_hi, q_lo = vals
        for frac in fracs:
            p_mid = p_lo + frac * (p_hi - p_lo)
            q_mid = q_lo + frac * (q_hi - q_lo)
            if not (contains(p_mid, q_hi) and contains(p_mid, q_lo)
                    and contains(p_hi, q_mid) and contains(p_lo, q_mid)):
                return False
        return True

    def box_ok(vals) -> bool:
        p_hi, p_lo, q_hi, q_lo = vals
        return (contains(p_hi, q_hi) and contains(p_hi, q_lo)
                and contains(p_lo, q_hi) and contains(p_lo, q_lo)
                and edges_ok(vals))

    def shrink(i):
        steps[i] /= 10.0
        if steps[i] <= eps:
            frozen[i] = True
            reasons[_SIDE_NAMES[i]] = (
                f"step {steps[i]:.3e} at or below tolerance after a "
                "rejected move")

    def solo_ok(i) -> bool:
        trial = list(sides)
        trial[i] = sides[i] + _SIGNS[i] * steps[i]
        return box_ok(trial)

    def run_rounds():
        nonlocal sides, iterations
        for _ in range(max_rounds):
            if all(frozen):
                return
            iterations += 1
            moved = [i for i in range(4) if not frozen[i]]
            trial = list(sides)
            for i in moved:
                trial[i] = sides[i] + _SIGNS[i] * steps[i]
            if box_ok(trial):
                sides = trial
                continue
            # a side is at fault when its own move alone already exits;
            # a purely joint (diagonal) failure shrinks every mover, which
            # refines the steps until the corner creeps onto the boundary
            blamed = {i for i in moved if not solo_ok(i)}
            if not blamed:
                blamed = set(moved)
            for i in blamed:
                shrink(i)
        raise RuntimeError("box expansion did not terminate")

    run_rounds()
    # contract repair: every frozen side must fail a 10 eps outward push;
    # re-open any side frozen by joint blame that can in fact still grow
    for _ in range(64):
        keep = [float(s) for s in steps]
        reopened = False
        for i in range(4):
            steps[i] = 10.0 * eps
            if solo_ok(i):
                frozen[i] = False
                reasons.pop(_SIDE_NAMES[i], None)
                reopened = True
            else:
                steps[i] = keep[i]
        if not reopened:
            break
        run_rounds()
    return PqBox(sides[0], sides[1], sides[2], sides[3], t0,
                 iterations, reasons)
