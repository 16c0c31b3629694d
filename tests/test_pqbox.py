"""Box-expansion tests on analytic region oracles (disk, square, annular
gap shapes) and on real tube cross-sections: soundness of every returned
corner, local maximality, determinism, termination, the refusal of a
non-finite step, the three initial-point rules, and that every point of a
K=3 tube's boxes lies in the section."""

import math

import numpy as np
import pytest

from ctflex import engine
from ctflex.instances import ess_symmetric, twelve_node, two_node
from ctflex.pqbox import (
    _ANGLE_TOL, _RADIUS_TOL, FunctionOracle, cross_section, expand_box,
    initial_point,
)
from oracles import box_excess


def disk(radius, center=(0.0, 0.0)):
    cx, cy = center
    return FunctionOracle(
        lambda p, q: math.hypot(p - cx, q - cy) <= radius)


def square(half, center=(0.0, 0.0)):
    cx, cy = center
    return FunctionOracle(
        lambda p, q: abs(p - cx) <= half and abs(q - cy) <= half)


@pytest.fixture(scope="module")
def sym_tube():
    return engine.assess(ess_symmetric(), engine.AssessmentConfig(
        directions=6, workers=1))


@pytest.fixture(scope="module")
def rich_tube():
    return engine.assess(twelve_node(), engine.AssessmentConfig(
        directions=6, workers=2))


@pytest.fixture(scope="module")
def k3_tube():
    return engine.assess(twelve_node(), engine.AssessmentConfig(
        directions=3, workers=2))


# -- expansion on analytic oracles ------------------------------------------------


def test_disk_box_is_inscribed_square():
    r = 2.0
    box = expand_box(disk(r), (0.0, 0.0), delta=r / 10, eps=1e-6)
    half = r / math.sqrt(2.0)
    assert box.p_max == pytest.approx(half, abs=1e-4 * r)
    assert box.p_min == pytest.approx(-half, abs=1e-4 * r)
    assert box.q_max == pytest.approx(half, abs=1e-4 * r)
    assert box.q_min == pytest.approx(-half, abs=1e-4 * r)


def test_square_box_exact():
    half = 1.3
    box = expand_box(square(half), (0.0, 0.0), delta=0.2, eps=1e-6)
    for got, want in ((box.p_max, half), (box.p_min, -half),
                      (box.q_max, half), (box.q_min, -half)):
        assert got == pytest.approx(want, abs=1e-5)


def test_offcenter_start_still_sound():
    r = 1.0
    box = expand_box(disk(r), (0.4, -0.2), delta=0.1, eps=1e-6)
    for p, q in box.corners():
        assert math.hypot(p, q) <= r + 1e-9


def test_start_outside_region_rejected():
    with pytest.raises(ValueError, match="not inside"):
        expand_box(disk(1.0), (2.0, 0.0), delta=0.1, eps=1e-6)
    with pytest.raises(ValueError):
        expand_box(disk(1.0), (0.0, 0.0), delta=-1.0, eps=1e-6)


@pytest.mark.parametrize("delta, eps", [
    (math.nan, 1e-6), (math.inf, 1e-6), (0.1, math.nan), (0.1, math.inf)],
    ids=["nan-delta", "inf-delta", "nan-eps", "inf-eps"])
def test_non_finite_step_rejected_before_any_membership_test(delta, eps):
    # a NaN or infinite delta, or a NaN eps, never freezes a side, and an
    # infinite eps freezes each at its first rejected move
    tested = []

    def member(p, q):
        tested.append((p, q))
        return math.hypot(p, q) <= 1.0

    with pytest.raises(ValueError, match="positive and finite"):
        expand_box(FunctionOracle(member), (0.0, 0.0), delta=delta, eps=eps)
    assert tested == []


def test_determinism():
    a = expand_box(disk(1.7), (0.1, 0.1), delta=0.13, eps=1e-5)
    b = expand_box(disk(1.7), (0.1, 0.1), delta=0.13, eps=1e-5)
    assert a == b


def test_local_maximality_on_disk():
    r = 1.0
    eps = 1e-6
    box = expand_box(disk(r), (0.0, 0.0), delta=0.09, eps=eps)
    oracle = disk(r)
    pushes = [
        (box.p_max + 10 * eps, box.q_max), (box.p_min - 10 * eps, box.q_min),
        (box.p_max, box.q_max + 10 * eps), (box.p_min, box.q_min - 10 * eps),
    ]
    for p, q in pushes:
        assert not oracle.contains(p, q)


def test_iteration_count_bounded():
    delta, eps, r = 0.2, 1e-6, 2.0
    box = expand_box(disk(r), (0.0, 0.0), delta=delta, eps=eps)
    shrinks = math.ceil(math.log10(delta / eps)) + 1
    bound = 4 * shrinks * (2 * r / delta + 1)
    assert box.iterations <= bound


def test_edge_sampling_mode_guards_notched_region():
    # region = square minus a notch along the +P axis; corner-only checks
    # accept boxes whose edge crosses the notch, edge sampling must not
    def member(p, q):
        if abs(p) > 1.0 or abs(q) > 1.0:
            return False
        return not (p > 0.4 and abs(q) < 0.05)

    oracle = FunctionOracle(member)
    loose = expand_box(oracle, (-0.5, 0.0), delta=0.1, eps=1e-6)
    strict = expand_box(oracle, (-0.5, 0.0), delta=0.1, eps=1e-6,
                        edge_samples=32)
    assert loose.p_max > 0.4  # corners straddle the notch
    assert strict.p_max <= 0.4 + 1e-4


def test_cut_step_regrows_but_never_past_delta():
    # a long strip with a notch that the (P1, Q1) corner meets diagonally:
    # the joint failure cuts P1's step, and P1 then has 49 units to cross
    tested = []

    def member(p, q):
        ok = (-1.0 <= p <= 50.0 and abs(q) <= 1.0
              and not (0.8 < p < 1.0 and q > 0.85))
        tested.append((p, q, ok))
        return ok

    delta = 0.3
    box = expand_box(FunctionOracle(member), (0.0, 0.0), delta=delta,
                     eps=1e-6)
    assert box.p_max == pytest.approx(50.0, abs=1e-5)
    # left at its cut step, P1 would take 1,688 rounds to cross
    assert box.iterations <= 250
    # every accepted side is a coordinate of a member tested before, and
    # every trial side is an accepted side moved by its step, so a step
    # above delta shows as a point beyond every member so far by more
    far = [0.0, 0.0, 0.0, 0.0]      # P1, P2, Q1, Q2 of the start
    for p, q, ok in tested:
        assert max(p - far[0], far[1] - p, q - far[2], far[3] - q) \
            <= delta * (1 + 1e-12), (p, q)
        if ok:
            far = [max(far[0], p), min(far[1], p),
                   max(far[2], q), min(far[3], q)]


# -- cross-section oracle ------------------------------------------------------------


def test_section_boundary_inclusive(sym_tube):
    section = cross_section(sym_tube, 1800.0)
    k = 0  # theta = 0 sample
    r = section.radii[k]
    assert section.contains(r, 0.0)
    assert not section.contains(1.01 * r, 0.0)


def test_section_gap_direction_excluded():
    tube = engine.assess(two_node(), engine.AssessmentConfig(
        directions=2, workers=1))
    section = cross_section(tube, 900.0)
    # theta = 0 is feasible; pi/2 is a gap
    assert section.contains(0.25, 0.0)
    assert not section.contains(0.0, 0.1)
    # the origin stays a member while any direction is feasible
    assert section.contains(0.0, 0.0)


def reference_boundary_radius(section, theta):
    """The section boundary written with whole-array numpy operations, as a
    reference for the oracle's scalar path.  Directions match by their
    distance around the circle."""
    thetas, radii, feasible = section.thetas, section.radii, section.feasible
    two_pi = 2 * math.pi
    theta = theta % two_pi
    dist = np.abs(thetas - theta)
    exact = np.where(np.minimum(dist, two_pi - dist) <= _ANGLE_TOL)[0]
    if len(exact):
        k = int(exact[0])
        return float(radii[k]) if feasible[k] else None
    hi = int(np.searchsorted(thetas, theta)) % len(thetas)
    lo = (hi - 1) % len(thetas)
    if not (feasible[lo] and feasible[hi]):
        return None
    th_lo = thetas[lo]
    th_hi = thetas[hi] if hi > lo else thetas[hi] + two_pi
    th = theta if theta >= th_lo else theta + two_pi
    r_lo, r_hi = float(radii[lo]), float(radii[hi])
    # a sector wider than pi, or with one negative end, holds only the
    # origin
    if r_lo == 0.0 and r_hi == 0.0 \
            or r_lo * r_hi * math.sin(th_hi - th_lo) < 0.0:
        return 0.0
    denom = r_lo * math.sin(th - th_lo) + r_hi * math.sin(th_hi - th)
    if denom <= 0.0:
        return 0.0
    return r_lo * r_hi * math.sin(th_hi - th_lo) / denom


def reference_contains(section, p, q):
    r = math.hypot(p, q)
    if r <= _RADIUS_TOL:
        return bool(np.any(section.feasible))
    bound = reference_boundary_radius(section, math.atan2(q, p))
    if bound is None:
        return False
    return r <= bound + _RADIUS_TOL * max(1.0, bound)


def gap_and_zero_tube():
    """Eight directions over two periods: theta = 3 pi / 4 is a gap and
    theta = 3 pi / 2 has zero radius throughout."""
    rng = np.random.default_rng(3)
    slices = []
    for k in range(8):
        theta = k * math.pi / 4
        if k == 3:
            slices.append(engine.Slice(theta, "infeasible", None, None))
            continue
        coeffs = np.zeros((2, 4)) if k == 6 else rng.uniform(0.2, 1.5, (2, 4))
        slices.append(engine.Slice(theta, "optimal", coeffs, 1.0))
    return engine.FlexTube(tuple(slices), 0.0, 900.0, 2)


def wrap_tube():
    """Five directions over two periods, the last 4e-10 below 2 pi, so that
    a direction just above 0 matches it around the circle; theta = 3 is a
    gap."""
    rng = np.random.default_rng(5)
    slices = tuple(
        engine.Slice(theta, "infeasible", None, None) if theta == 3.0
        else engine.Slice(theta, "optimal", rng.uniform(0.2, 1.5, (2, 4)), 1.0)
        for theta in (0.5, 2.0, 3.0, 4.5, 2 * math.pi - 4e-10))
    return engine.FlexTube(slices, 0.0, 900.0, 2)


def test_section_oracle_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    for tube in (gap_and_zero_tube(), wrap_tube()):
        angles = [-0.3, -math.pi / 4, -1e-10, -2 * math.pi - 0.1, 1e-10,
                  math.nextafter(2 * math.pi, 0.0), 2 * math.pi - 1e-10,
                  7.0, 2 * math.pi]
        for th in tube.directions:
            angles += [th, th - 0.5 * _ANGLE_TOL, th + 0.5 * _ANGLE_TOL,
                       th - 2 * _ANGLE_TOL, th + 2 * _ANGLE_TOL]
        angles += rng.uniform(-7.0, 7.0, 200).tolist()
        for t0 in (0.0, 450.0, 900.0, 1234.5, 1800.0):
            section = cross_section(tube, t0)
            for th in angles:
                got = section.boundary_radius(th)
                assert repr(got) \
                    == repr(reference_boundary_radius(section, th)), (t0, th)
                for scale in (0.0, 0.5, 1.0, 1.0 + 1e-10, 1.5):
                    r = scale * (got or 1.0)
                    p, q = r * math.cos(th), r * math.sin(th)
                    assert section.contains(p, q) \
                        == reference_contains(section, p, q), (t0, th, scale)
            for p, q in ((0.0, 0.0), (1e-10, -1e-10), (-0.0, 0.0)):
                assert section.contains(p, q) is True
                assert reference_contains(section, p, q) is True


def constant_tube(thetas, radii):
    """Every direction feasible, its radius constant over one period."""
    return engine.FlexTube(tuple(
        engine.Slice(th, "optimal", np.full((1, 4), r), 1.0)
        for th, r in zip(thetas, radii)), 0.0, 900.0, 1)


def test_sector_wider_than_pi_holds_only_the_origin():
    section = cross_section(constant_tube((0.0, 1.0), (1.0, 2.0)), 450.0)
    assert section.boundary_radius(1.0 + math.pi) == 0.0
    for th in np.linspace(0.0, 2 * math.pi, 721).tolist():
        r = section.boundary_radius(th)
        assert r >= 0.0, th
        assert repr(r) == repr(reference_boundary_radius(section, th)), th
    assert not section.contains(-0.5, 0.0)
    assert section.contains(0.0, 0.0) and section.contains(1.0, 0.0)


def test_section_origin_without_feasible_direction():
    slices = tuple(engine.Slice(k * math.pi / 2, "infeasible", None, None)
                   for k in range(4))
    section = cross_section(engine.FlexTube(slices, 0.0, 900.0, 1), 450.0)
    for p, q in ((0.0, 0.0), (1e-10, 0.0), (0.3, 0.2)):
        assert section.contains(p, q) is False
        assert reference_contains(section, p, q) is False


def test_section_oracle_matches_reference_on_solved_tube(sym_tube):
    rng = np.random.default_rng(5)
    for t0 in (0.0, 1800.0, 3600.0):
        section = cross_section(sym_tube, t0)
        for p, q in rng.uniform(-1.5, 1.5, (400, 2)).tolist():
            assert section.contains(p, q) == reference_contains(section, p, q)
            th = math.atan2(q, p)
            assert repr(section.boundary_radius(th)) \
                == repr(reference_boundary_radius(section, th))


def test_section_outside_horizon():
    tube = engine.assess(two_node(), engine.AssessmentConfig(
        directions=2, workers=1))
    with pytest.raises(ValueError):
        cross_section(tube, 1e9)


# -- initial point --------------------------------------------------------------------


def test_initial_point_symmetric_region_is_origin(sym_tube):
    p0, q0 = initial_point(cross_section(sym_tube, 1800.0))
    assert math.hypot(p0, q0) <= 1e-6


def test_initial_point_single_direction():
    tube = engine.assess(two_node(), engine.AssessmentConfig(
        directions=2, workers=1))
    p0, q0 = initial_point(cross_section(tube, 900.0))
    # only theta = 0 is feasible: its half-radius point
    assert q0 == pytest.approx(0.0, abs=1e-9)
    assert p0 == pytest.approx(0.25, abs=1e-6)


def test_initial_point_half_plane_piece():
    # synthetic tube: feasible radii r = 2 for theta in the upper half plane
    coeffs = np.full((1, 4), 2.0)
    slices = []
    for k in range(8):
        theta = k * math.pi / 4
        if theta <= math.pi + 1e-12:
            slices.append(engine.Slice(theta, "optimal", coeffs, 1800.0))
        else:
            slices.append(engine.Slice(theta, "infeasible", None, None))
    tube = engine.FlexTube(tuple(slices), 0.0, 900.0, 1)
    p0, q0 = initial_point(cross_section(tube, 450.0))
    # width exactly pi -> rule (ii): half the mid-direction boundary radius
    assert p0 == pytest.approx(2.0 / 2 * math.cos(math.pi / 2), abs=1e-9)
    assert q0 == pytest.approx(1.0, abs=1e-9)


def test_initial_point_wide_piece_uses_largest_radius():
    # 3/4 of the circle feasible (width > pi), radii grow with theta
    slices = []
    for k in range(8):
        theta = k * math.pi / 4
        if theta <= 1.5 * math.pi + 1e-12:
            r = 1.0 + 0.1 * k
            slices.append(engine.Slice(theta, "optimal", np.full((1, 4), r),
                                       900.0 * r))
        else:
            slices.append(engine.Slice(theta, "infeasible", None, None))
    tube = engine.FlexTube(tuple(slices), 0.0, 900.0, 1)
    p0, q0 = initial_point(cross_section(tube, 450.0))
    r_best = 1.0 + 0.1 * 6
    want = (0.5 * r_best * math.cos(1.5 * math.pi),
            0.5 * r_best * math.sin(1.5 * math.pi))
    assert p0 == pytest.approx(want[0], abs=1e-9)
    assert q0 == pytest.approx(want[1], abs=1e-9)


# grids that all_directions never makes: four directions, none opposite
# direction 0, and two directions 1 rad apart, so a sector wider than pi
@pytest.mark.parametrize("thetas, radii", [
    ((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 5.0, 1.0)),
    ((0.0, 1.0), (1.0, 2.0))], ids=["four", "two"])
def test_initial_point_is_a_member_on_uneven_grids(thetas, radii):
    section = cross_section(constant_tube(thetas, radii), 450.0)
    assert section.contains(*initial_point(section))


def test_initial_point_no_feasible_direction():
    slices = tuple(engine.Slice(k * math.pi / 2, "infeasible", None, None)
                   for k in range(4))
    tube = engine.FlexTube(slices, 0.0, 900.0, 1)
    with pytest.raises(ValueError, match="no feasible"):
        initial_point(cross_section(tube, 450.0))


# -- real cross-sections ----------------------------------------------------------------


@pytest.mark.parametrize("t0", [450.0, 1800.0, 3150.0])
def test_box_sound_and_maximal_on_tube_sections(rich_tube, t0):
    section = cross_section(rich_tube, t0)
    start = initial_point(section)
    scale = float(np.nanmax(section.radii))
    eps = 1e-4 * scale
    box = expand_box(section, start, delta=0.05 * scale, eps=eps, t0=t0)
    for p, q in box.corners():
        assert section.contains(p, q)
    # pushing any side outward by 10 eps must lose a corner of that side
    pushes = {
        "P1": [(box.p_max + 10 * eps, box.q_max),
               (box.p_max + 10 * eps, box.q_min)],
        "P2": [(box.p_min - 10 * eps, box.q_max),
               (box.p_min - 10 * eps, box.q_min)],
        "Q1": [(box.p_max, box.q_max + 10 * eps),
               (box.p_min, box.q_max + 10 * eps)],
        "Q2": [(box.p_max, box.q_min - 10 * eps),
               (box.p_min, box.q_min - 10 * eps)],
    }
    for side, corners in pushes.items():
        assert any(not section.contains(p, q) for p, q in corners), side


def test_box_symmetric_on_symmetric_region(sym_tube):
    section = cross_section(sym_tube, 1800.0)
    box = expand_box(section, initial_point(section), delta=0.02,
                     eps=1e-6, t0=1800.0)
    assert box.p_max == pytest.approx(-box.p_min, abs=1e-3)
    assert box.q_max == pytest.approx(-box.q_min, abs=1e-3)


@pytest.mark.parametrize("edge_samples", [0, 8])
def test_k3_boxes_lie_in_their_sections(k3_tube, edge_samples):
    # with the CLI's delta and eps at 97 times across the horizon, every
    # point of each box lies in the section, not only the tested ones; the
    # stored K=12 tube's boxes do not all do so
    for k in range(1, 98):
        t0 = k * 3600 / 98
        section = cross_section(k3_tube, t0)
        scale = float(np.nanmax(section.radii))
        box = expand_box(section, initial_point(section), 0.05 * scale,
                         1e-4 * scale, t0=t0, edge_samples=edge_samples)
        assert box_excess(section, box) <= _RADIUS_TOL, t0
