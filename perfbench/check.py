"""Correctness checks on the program's outputs.

Direction solves are compared with a reference recorded at the baseline
commit: the status must be equal and the objective must agree within the
MIP gap, relative.  Boxes are checked against invariants instead, with a
cross-section oracle written here independently of ``ctflex.pqbox``: every
corner and edge sample lies in the section, and each side pushed outward by
10 eps leaves it.

Only the standard library is used, so the checks run (and are tested)
without the program.
"""

from __future__ import annotations

import csv
import math
from math import comb

MIP_GAP = 1e-6          # the gap every workload solves with (CLI default)
SECTION_TOL = 1e-9      # the membership tolerance of the program's oracle
QUERY_TOL = 1e-12       # when the program's tube query takes a sampled point


def objective_matches(got: float, want: float, gap: float = MIP_GAP) -> bool:
    return abs(got - want) <= gap * max(abs(got), abs(want), 1.0)


def compare_directions(ref: dict, got: dict, gap: float = MIP_GAP) -> list:
    """Mismatches between ``{repr(theta): [status, objective]}`` maps, at
    most one per reference direction."""
    out = []
    for key, (status, objective) in ref.items():
        if key not in got:
            out.append(f"direction {key}: missing")
            continue
        g_status, g_objective = got[key]
        if g_status != status:
            out.append(f"direction {key}: status {g_status}, want {status}")
        elif objective is not None and (
                g_objective is None
                or not objective_matches(g_objective, objective, gap)):
            out.append(f"direction {key}: objective {g_objective}, "
                       f"want {objective}")
    out.extend(f"direction {key}: not in reference"
               for key in got if key not in ref)
    return out


def compare_cell(ref: dict, got: dict, gap: float = MIP_GAP) -> list:
    """Mismatches of one assessment's ``M`` and gap count."""
    out = []
    if not objective_matches(got["M"], ref["M"], gap):
        out.append(f"M {got['M']}, want {ref['M']}")
    if got["gaps"] != ref["gaps"]:
        out.append(f"{got['gaps']} gaps, want {ref['gaps']}")
    return out


# -- tube files ------------------------------------------------------------------


def read_tube(path: str, horizon: dict) -> dict:
    """Parse a tube CSV into ``{repr(theta): (status, coeffs)}`` with
    coeffs[period][k], or None for a gap."""
    rows: dict = {}
    with open(path, newline="") as fp:
        for row in csv.DictReader(fp):
            key = repr(float(row["theta"]))
            status, coeffs = rows.setdefault(key, (row["status"], {}))
            if row["status"] == "optimal":
                coeffs[(int(row["period"]), int(row["coef_index"]))] = \
                    float(row["value"])
    out = {}
    for key, (status, cells) in rows.items():
        if status != "optimal":
            out[key] = (status, None)
            continue
        n_coef = 1 + max(k for _, k in cells)
        out[key] = (status, [[cells[(m, k)] for k in range(n_coef)]
                             for m in range(int(horizon["n_periods"]))])
    return out


def tube_objectives(tube: dict, horizon: dict) -> dict:
    """``{repr(theta): [status, objective]}``; the objective is the
    integral of S0, i.e. period / n_coef times its coefficient sum."""
    out = {}
    for key, (status, coeffs) in tube.items():
        if coeffs is None:
            out[key] = [status, None]
        else:
            weight = float(horizon["period"]) / len(coeffs[0])
            out[key] = [status, weight * sum(map(sum, coeffs))]
    return out


class Section:
    """The tube's P-Q region at one time: the star-shaped polygon through
    the boundary points of the feasible sampled directions, with the chord
    between neighbours and nothing across a gap."""

    def __init__(self, tube: dict, horizon: dict, t: float):
        t1, period = float(horizon["t1"]), float(horizon["period"])
        n_periods = int(horizon["n_periods"])
        rel = min(max((t - t1) / period, 0.0), float(n_periods))
        m = int(math.floor(rel))
        if m > 0 and rel == m:
            m -= 1                       # a period boundary belongs left
        m = min(m, n_periods - 1)
        s = rel - m
        self.points = []                 # (theta, radius or None), sorted
        for key in sorted(tube, key=float):
            _, coeffs = tube[key]
            radius = None
            if coeffs is not None:
                c = coeffs[m]
                n = len(c) - 1
                radius = sum(c[k] * comb(n, k) * s ** k * (1 - s) ** (n - k)
                             for k in range(n + 1))
            self.points.append((float(key), radius))

    @property
    def scale(self) -> float:
        return max(r for _, r in self.points if r is not None)

    def _neighbours(self, theta: float):
        """The sampled points on either side of theta, or None if either is
        a gap."""
        pts = self.points
        hi = next((i for i, (th, _) in enumerate(pts) if th > theta), 0)
        (th_lo, r_lo), (th_hi, r_hi) = pts[hi - 1], pts[hi]
        if r_lo is None or r_hi is None:
            return None
        return th_lo, r_lo, th_hi, r_hi

    def boundary(self, theta: float):
        """Radius of the section's edge along theta; None inside a gap."""
        theta %= 2 * math.pi
        for th, r in self.points:
            if abs(th - theta) <= SECTION_TOL:
                return r
        near = self._neighbours(theta)
        if near is None:
            return None
        th_lo, r_lo, th_hi, r_hi = near
        if th_hi <= th_lo:
            th_hi += 2 * math.pi
        if theta < th_lo:
            theta += 2 * math.pi
        # the chord from (th_lo, r_lo) to (th_hi, r_hi) meets the ray here
        denom = r_lo * math.sin(theta - th_lo) + r_hi * math.sin(th_hi - theta)
        if denom <= 0.0:
            return 0.0
        return r_lo * r_hi * math.sin(th_hi - th_lo) / denom

    def query(self, theta: float):
        """(P, Q) of the tube skin at direction theta: a sampled point, or
        the combination of the two neighbouring ones weighted by angle; None
        next to a gap."""
        theta %= 2 * math.pi
        for th, r in self.points:
            if abs(th - theta) <= QUERY_TOL:
                return None if r is None else (r * math.cos(th),
                                               r * math.sin(th))
        near = self._neighbours(theta)
        if near is None:
            return None
        th_lo, r_lo, th_hi, r_hi = near
        frac = ((theta - th_lo) % (2 * math.pi)) / \
            ((th_hi - th_lo) % (2 * math.pi))
        return ((1 - frac) * r_lo * math.cos(th_lo)
                + frac * r_hi * math.cos(th_hi),
                (1 - frac) * r_lo * math.sin(th_lo)
                + frac * r_hi * math.sin(th_hi))

    def contains(self, p: float, q: float) -> bool:
        r = math.hypot(p, q)
        if r <= SECTION_TOL:
            return any(rad is not None for _, rad in self.points)
        bound = self.boundary(math.atan2(q, p))
        return bound is not None and \
            r <= bound + SECTION_TOL * max(1.0, bound)


def box_points(p_max, p_min, q_max, q_min, edge_samples: int) -> list:
    """The four corners plus ``edge_samples`` interior points per side."""
    pts = [(p_max, q_max), (p_max, q_min), (p_min, q_max), (p_min, q_min)]
    for j in range(1, edge_samples + 1):
        frac = j / (edge_samples + 1)
        p_mid = p_min + frac * (p_max - p_min)
        q_mid = q_min + frac * (q_max - q_min)
        pts += [(p_mid, q_max), (p_mid, q_min), (p_max, q_mid), (p_min, q_mid)]
    return pts


def box_violations(section: Section, box: dict, eps: float,
                   edge_samples: int) -> list:
    """Soundness and local maximality of one box.json document."""
    sides = [box["P1"], box["P2"], box["Q1"], box["Q2"]]
    out = [f"point {pt} outside the section"
           for pt in box_points(*sides, edge_samples)
           if not section.contains(*pt)]
    for i, (name, sign) in enumerate(zip(("P1", "P2", "Q1", "Q2"),
                                         (1, -1, 1, -1))):
        pushed = list(sides)
        pushed[i] += sign * 10 * eps
        if pushed[i] == sides[i]:
            continue                     # degenerate: the push does not move
        if all(section.contains(*pt)
               for pt in box_points(*pushed, edge_samples)):
            out.append(f"side {name} can still grow by 10 eps")
    return out


def grid_violations(rows, tube: dict, horizon: dict, n_theta: int = 96,
                    n_t: int = 33) -> list:
    """Every (theta, t, p, q) row of a dense grid is the tube point at its
    direction and time, and the grid has one row per non-gap point."""
    out, sections = [], {}

    def section(t):
        if t not in sections:
            sections[t] = Section(tube, horizon, t)
        return sections[t]

    for row in rows:
        t, theta = float(row["t"]), float(row["theta"])
        p, q = float(row["p"]), float(row["q"])
        want = section(t).query(theta)
        if want is None or math.dist(want, (p, q)) > \
                SECTION_TOL * max(1.0, math.hypot(*want)):
            out.append(f"grid point ({p}, {q}) at theta={theta}, t={t}: "
                       f"want {want}")
    t1 = float(horizon["t1"])
    span = float(horizon["period"]) * int(horizon["n_periods"])
    count = sum(section(t1 + j * span / (n_t - 1)).query(
                    2 * math.pi * k / n_theta) is not None
                for k in range(n_theta) for j in range(n_t))
    if len(rows) != count:
        out.append(f"{len(rows)} grid rows, want {count}")
    return out
