"""Shared deterministic generators for the property-style tests."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import settings

from cyclekit import (
    CycleQuadruple,
    FSCcContext,
    GroupElement,
    Point,
    SpaceSign,
    compose,
    radius_sq,
    subgroup_element,
)

# Property tests draw the same examples on every run and never time out:
# host speed varies by up to 2x, and runs of two commits must be comparable.
settings.register_profile("cyclekit", deadline=None, derandomize=True)
# The same, with about 2,000 examples for each test that does not fix its own count:
# python -m pytest --hypothesis-profile deep tests/test_scalar_policy.py
settings.register_profile("deep", settings.get_profile("cyclekit"), max_examples=2000)


def pytest_configure(config):
    """Load "cyclekit" unless ``--hypothesis-profile`` names a profile to run."""
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("cyclekit")


def at_least(count: int) -> settings:
    """``count`` examples, or the loaded profile's count where it is larger (the deep profile).

    A test module calls it at import, after ``pytest_configure`` has loaded the profile.
    """
    return settings(max_examples=max(count, settings.default.max_examples))


ALL_SIGNS = (SpaceSign.ELLIPTIC, SpaceSign.PARABOLIC, SpaceSign.HYPERBOLIC)


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_nonzero_fraction(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    while True:
        value = rand_fraction(rng, lo, hi)
        if value != 0:
            return value


def rand_group_exact(rng: random.Random) -> GroupElement:
    """Random exact SL(2,R) element as a dilation*shift*rotation product."""
    alpha = abs(rand_nonzero_fraction(rng, -4, 4))
    nu = rand_fraction(rng, -4, 4)
    t = rand_fraction(rng, -3, 3)
    g = compose(
        compose(subgroup_element("A", alpha), subgroup_element("N", nu)),
        subgroup_element("K", t),
    )
    if rng.random() < 0.5:
        g = compose(g, subgroup_element("K", rand_fraction(rng, -3, 3)))
    return g


def rand_group_float(rng: random.Random) -> GroupElement:
    alpha = math.exp(rng.uniform(-1.5, 1.5))
    nu = rng.uniform(-4.0, 4.0)
    phi = rng.uniform(-math.pi, math.pi)
    return compose(
        compose(subgroup_element("A", alpha), subgroup_element("N", nu)),
        GroupElement(math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi)),
    )


def rand_point_exact(rng: random.Random) -> Point:
    return Point(rand_fraction(rng), rand_fraction(rng))


def rand_cycle(rng: random.Random, k_nonzero: bool = False, n_nonzero: bool = False) -> CycleQuadruple:
    while True:
        comps = [rand_fraction(rng, -6, 6) for _ in range(4)]
        if all(c == 0 for c in comps):
            continue
        if k_nonzero and comps[0] == 0:
            continue
        if n_nonzero and comps[2] == 0:
            continue
        return CycleQuadruple(*comps)


def rand_real_circle(rng: random.Random) -> CycleQuadruple:
    """Quadruple with k != 0 and positive elliptic radius squared."""
    while True:
        cand = rand_cycle(rng, k_nonzero=True)
        if radius_sq(cand, FSCcContext(SpaceSign.ELLIPTIC, 1)) > 0:
            return cand


def conformal_safe(g: GroupElement, y: tuple[float, float], sigma: SpaceSign, floor: float = 1.0) -> bool:
    """True when y sits far enough from the pole of g in the sigma-plane.

    Near a vanishing denominator modulus the conformal factor varies too
    fast for finite-t ratio probing (the operation's no-degeneracy
    precondition).  In the hyperbolic plane both null factors of the
    denominator must stay away from zero, not only their product.
    """
    den_re = float(g.c) * y[0] + float(g.d)
    den_im = float(g.c) * y[1]
    if sigma == SpaceSign.HYPERBOLIC:
        return min((den_re - den_im) ** 2, (den_re + den_im) ** 2) >= floor
    return abs(den_re * den_re - int(sigma) * den_im * den_im) >= floor


def sample_points_on_cycle(
    cycle: CycleQuadruple, sigma: SpaceSign, count: int, span: float = 4.0
) -> list[tuple[float, float]]:
    """Float points on the sigma-realisation, or fewer if the locus is small."""
    k = float(cycle.k)
    l = float(cycle.l)
    n = float(cycle.n)
    m = float(cycle.m)
    pts: list[tuple[float, float]] = []
    if sigma == SpaceSign.ELLIPTIC and k != 0:
        r_sq = (l * l + n * n - m * k) / (k * k)
        if r_sq <= 0:
            return []
        cu, cv = l / k, n / k
        r = math.sqrt(r_sq)
        for i in range(count):
            theta = 2.0 * math.pi * (i + 0.37) / count
            pts.append((cu + r * math.cos(theta), cv + r * math.sin(theta)))
        return pts
    centre_u = l / k if k != 0 else 0.0
    grid = [centre_u + span * (2.0 * i / max(count * 3 - 1, 1) - 1.0) for i in range(count * 3)]
    sig = int(sigma)
    for u in grid:
        const = k * u * u - 2.0 * l * u + m
        if k == 0 or sig == 0:
            # linear in v
            coeff = -2.0 * n
            if abs(coeff) < 1e-12:
                continue
            pts.append((u, -const / coeff))
        else:
            a = -sig * k
            b = -2.0 * n
            disc = b * b - 4.0 * a * const
            if disc < 0:
                continue
            root = math.sqrt(disc)
            for sgn in (1.0, -1.0):
                pts.append((u, (-b + sgn * root) / (2.0 * a)))
        if len(pts) >= count:
            break
    return pts[:count]
