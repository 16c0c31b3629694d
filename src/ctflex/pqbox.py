"""Decoupled rectangular P-Q flexibility via exploratory box expansion.

A cross-section of the flexibility tube at a fixed time is a star-shaped
region assembled from the sampled boundary points and the chords between
neighbouring feasible directions.  The search starts from an interior
point picked by the shape of the feasible piece, pushes the four box sides
outward, and whenever a corner leaves the region, retracts the offending
side and divides its step by ten until every side's step falls below the
tolerance.  A side regrows a cut step tenfold after ten accepted moves in
a row, never past the first step, so that it does not creep across the
section at a hundredth of that step.  One loop of rounds does it all;
its exit test is the box's contract, so a frozen side that can still grow
reopens.  Corner-only membership tests mirror the published procedure; an
optional edge-sampling mode guards non-convex cross-sections.

Membership contract: ``expand_box`` takes any object whose ``contains(p,
q)`` answers membership in a fixed region, the same way each time it is
asked.  It never re-tests a point of the box it last accepted: a corner or
edge sample whose coordinates come only from sides that have not moved is
taken as a member without a call.
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
# a point within this of the boundary radius, relative above radius 1,
# is a member of a tube section
_RADIUS_TOL = 1e-9
# rounds that expand_box runs before it gives up
_MAX_ROUNDS = 1_000_000


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
    between their boundary points along its ray.  A direction within the
    angle tolerance of a sampled one, measured around the circle, is that
    sampled direction.  A sector whose chord passes on the far side of the
    origin (wider than pi, or with one negative end radius) has boundary
    radius 0.  The origin is a member whenever any direction is feasible.

    ``thetas``, ``radii`` (NaN in gaps) and ``feasible`` are arrays for
    callers.  ``boundary_radius(theta)`` and ``contains(p, q)`` are
    closures built once here over plain-float copies, so each membership
    test is a bisection and a few ``math`` operations.
    """

    def __init__(self, tube: FlexTube, t0: float):
        self.t0 = float(t0)
        self.thetas = tube.directions
        self.radii = tube.radii(t0)
        self.feasible = ~np.isnan(self.radii)
        thetas = self.thetas.tolist()
        radii = [float(r) if ok else None
                 for r, ok in zip(self.radii, self.feasible)]
        any_feasible = bool(np.any(self.feasible))
        n = len(thetas)
        two_pi = 2 * math.pi
        # a match across 2 pi needs theta within the tolerance of 0 or
        # 2 pi; the gates allow twice that for rounding
        near_zero, near_two_pi = 2 * _ANGLE_TOL, two_pi - 2 * _ANGLE_TOL
        # chord between sampled directions lo and lo + 1 (wrapping past
        # 2 pi): (theta_lo, theta_hi, r_lo, r_hi, r_lo r_hi sin(span)),
        # or None when either end is a gap
        sectors = []
        for lo in range(n):
            hi = (lo + 1) % n
            r_lo, r_hi = radii[lo], radii[hi]
            if r_lo is None or r_hi is None:
                sectors.append(None)
                continue
            th_lo = thetas[lo]
            th_hi = thetas[hi] if hi > lo else thetas[hi] + two_pi
            num = r_lo * r_hi * math.sin(th_hi - th_lo)
            if num < 0.0:       # the sector holds only the origin
                r_lo = r_hi = num = 0.0
            sectors.append((th_lo, th_hi, r_lo, r_hi, num))
        sin, hypot, atan2 = math.sin, math.hypot, math.atan2
        tol = _RADIUS_TOL

        def boundary_radius(theta):
            """Radius of the section boundary along direction theta, or
            None inside a gap."""
            theta %= two_pi
            # the first sampled direction within the angle tolerance wins;
            # direction 0 is the first that can match across 2 pi
            if theta > near_two_pi \
                    and two_pi - abs(thetas[0] - theta) <= _ANGLE_TOL:
                return radii[0]
            # rounded differences are monotone, so matches are contiguous
            # around the insertion point
            hi = bisect_left(thetas, theta)
            k = hi
            while k > 0 and abs(thetas[k - 1] - theta) <= _ANGLE_TOL:
                k -= 1
            if k < hi or (hi < n and abs(thetas[hi] - theta) <= _ANGLE_TOL):
                return radii[k]
            if theta < near_zero:
                # from just above 0, the last directions can match below 2 pi
                k = n
                while k > 0 and \
                        two_pi - abs(thetas[k - 1] - theta) <= _ANGLE_TOL:
                    k -= 1
                if k < n:
                    return radii[k]
            # below the first or above the last direction, hi - 1 picks the
            # sector that wraps past 2 pi
            sector = sectors[hi - 1]
            if sector is None:
                return None
            th_lo, th_hi, r_lo, r_hi, num = sector
            th = theta if theta >= th_lo else theta + two_pi
            # ray-chord crossing in polar form
            denom = r_lo * sin(th - th_lo) + r_hi * sin(th_hi - th)
            if denom <= 0.0:
                return 0.0
            return num / denom

        def contains(p, q):
            """Whether the point (p, q) lies in the section."""
            r = hypot(p, q)
            if r <= tol:
                return any_feasible
            bound = boundary_radius(atan2(q, p))
            if bound is None:
                return False
            return r <= bound + tol * (bound if bound > 1.0 else 1.0)

        self.boundary_radius = boundary_radius
        self.contains = contains


def cross_section(tube: FlexTube, t0: float) -> TubeSectionOracle:
    """Membership oracle for the tube's P-Q region at time t0."""
    return TubeSectionOracle(tube, t0)


def _feasible_pieces(feasible) -> list:
    """Maximal runs of consecutive feasible sampled directions, each a list
    of indices: a run that wraps past the last index comes first, then the
    others in index order."""
    pieces = []
    for k in np.flatnonzero(feasible).tolist():
        if pieces and pieces[-1][-1] == k - 1:
            pieces[-1].append(k)
        else:
            pieces.append([k])
    # the run at the last index goes on at index 0
    if len(pieces) > 1 and feasible[0] and feasible[-1]:
        pieces[0] = pieces.pop() + pieces[0]
    return pieces


def initial_point(section: TubeSectionOracle) -> tuple:
    """Interior starting point for the box search in a tube cross-section.

    An even number of directions, all feasible: the midpoint of the longest
    chord through the origin from a direction of the first half to the
    boundary opposite it.  Otherwise take the largest contiguous feasible
    piece: its mid-direction boundary point scaled by half when the piece
    spans at most pi, else half of its largest sampled boundary radius
    along that radius' direction.
    """
    thetas, radii, feasible = section.thetas, section.radii, section.feasible
    if not np.any(feasible):
        raise ValueError(f"no feasible direction at t = {section.t0}")
    n = len(thetas)
    if np.all(feasible) and n % 2 == 0:
        half = n // 2
        far = np.array([section.boundary_radius(th)
                        for th in (thetas[:half] + math.pi).tolist()])
        k = int(np.argmax(radii[:half] + far))
        mid = 0.5 * (radii[k] - far[k])
        return (mid * math.cos(thetas[k]), mid * math.sin(thetas[k]))
    piece = max(_feasible_pieces(feasible), key=len)
    # a piece that wraps past 2 pi ends a full turn on
    first = thetas[piece[0]]
    last = thetas[piece[-1]] + 2 * math.pi * (piece[-1] < piece[0])
    if last - first <= math.pi + _ANGLE_TOL:
        mid_theta = 0.5 * (first + last)
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
               t0: float = 0.0, edge_samples: int = 0) -> PqBox:
    """Grow the largest locally-maximal axis-aligned box around ``start``.

    ``oracle`` is any object whose ``contains(p, q)`` tests membership in
    the region at a fixed time (see the module's membership contract).

    Every round advances all unfrozen sides simultaneously by their own
    steps (initialized to ``delta``) and tests the four corners (plus
    sampled edge points when ``edge_samples`` > 0).  A failed corner blames
    the advancing side(s) whose retraction repairs it; blamed sides retract
    and divide their step by ten, freezing at or below ``eps``.  After ten
    accepted moves in a row at one step, a side multiplies that step by
    ten, never above ``delta``: ten is the factor of the cut, so the side
    is one rejected step past where it was cut.

    When every side is frozen, the first side that a 10 eps outward push
    leaves inside reopens at that step and moves solo; when none does, the
    box is returned.  So a returned box meets its contract: every tested
    point is a member, and a 10 eps push of any side leaves the region.
    Each regrowth and each reopening follows a growth of at least 10 eps,
    so the search ends on a bounded region (the stored 12-node tube's
    boxes reopen at most 5 times); ``_MAX_ROUNDS`` ends it with
    RuntimeError on an unbounded one.  ValueError unless ``delta`` and
    ``eps`` are positive and finite and ``start`` is a member.
    """
    if not all(math.isfinite(v) and v > 0 for v in (delta, eps)):
        raise ValueError("delta and eps must be positive and finite")
    p0, q0 = float(start[0]), float(start[1])
    if not oracle.contains(p0, q0):
        raise ValueError(f"start point ({p0}, {q0}) is not inside the region")
    sides = [p0, p0, q0, q0]        # P1, P2, Q1, Q2
    steps = [float(delta)] * 4
    runs = [0] * 4                  # accepted moves in a row at this step
    frozen = [False] * 4
    reasons: dict = {}
    iterations = 0

    fracs = (np.linspace(0, 1, edge_samples + 2)[1:-1].tolist()
             if edge_samples > 0 else [])
    contains = oracle.contains

    def box_ok(vals) -> bool:
        # a point whose coordinates all come from sides that have not
        # moved off the accepted box ``sides`` is a point of that box, a
        # member tested when the box was accepted, so it is skipped
        p_hi, p_lo, q_hi, q_lo = vals
        new_p_hi, new_p_lo = p_hi != sides[0], p_lo != sides[1]
        new_q_hi, new_q_lo = q_hi != sides[2], q_lo != sides[3]
        if ((new_p_hi or new_q_hi) and not contains(p_hi, q_hi)
                or (new_p_hi or new_q_lo) and not contains(p_hi, q_lo)
                or (new_p_lo or new_q_hi) and not contains(p_lo, q_hi)
                or (new_p_lo or new_q_lo) and not contains(p_lo, q_lo)):
            return False
        new_p, new_q = new_p_hi or new_p_lo, new_q_hi or new_q_lo
        for frac in fracs:
            p_mid = p_lo + frac * (p_hi - p_lo)
            q_mid = q_lo + frac * (q_hi - q_lo)
            if ((new_p or new_q_hi) and not contains(p_mid, q_hi)
                    or (new_p or new_q_lo) and not contains(p_mid, q_lo)
                    or (new_q or new_p_hi) and not contains(p_hi, q_mid)
                    or (new_q or new_p_lo) and not contains(p_lo, q_mid)):
                return False
        return True

    def pushed_ok(i, step) -> bool:
        trial = list(sides)
        trial[i] = sides[i] + _SIGNS[i] * step
        return box_ok(trial)

    for _ in range(_MAX_ROUNDS):
        if all(frozen):
            # contract repair: reopen the first side that can still grow
            # by 10 eps; alone, no joint failure freezes it again
            i = next((i for i in range(4) if pushed_ok(i, 10.0 * eps)),
                     None)
            if i is None:
                return PqBox(sides[0], sides[1], sides[2], sides[3], t0,
                             iterations, reasons)
            frozen[i] = False
            steps[i] = 10.0 * eps
            del reasons[_SIDE_NAMES[i]]
        iterations += 1
        moved = [i for i in range(4) if not frozen[i]]
        trial = list(sides)
        for i in moved:
            trial[i] = sides[i] + _SIGNS[i] * steps[i]
        if box_ok(trial):
            sides = trial
            for i in moved:
                runs[i] += 1
                if runs[i] == 10:
                    runs[i] = 0
                    steps[i] = min(10.0 * steps[i], float(delta))
            continue
        # a side is at fault when its own move alone already exits; a
        # purely joint (diagonal) failure shrinks every mover, which
        # refines the steps until the corner creeps onto the boundary
        blamed = [i for i in moved if not pushed_ok(i, steps[i])] or moved
        for i in blamed:
            steps[i] /= 10.0
            runs[i] = 0
            if steps[i] <= eps:
                frozen[i] = True
                reasons[_SIDE_NAMES[i]] = (
                    f"step {steps[i]:.3e} at or below tolerance after a "
                    "rejected move")
    raise RuntimeError("box expansion did not terminate")
