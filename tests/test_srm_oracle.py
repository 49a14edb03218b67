"""Independent exact-arithmetic check of the scalar-model series.

The solutions of the three scalar field-equation systems are re-derived
here by undetermined coefficients in sympy, with no package code in the
loop, and the package's float coefficients are pinned against the exact
rationals.  The frozen numbers asserted in test_solvers.py come from this
derivation.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
sp = sympy

from blockspin import solvers
from blockspin.reference import scalar_reference_spec


G = sp.Symbol("g")
PSI_STAR, PSI = sp.symbols("psi_star psi")
THETA_STAR, THETA = sp.symbols("theta_star theta")
ORDER = 5


def undetermined_pair(eq_pair, sources, order):
    """Solve a coupled pair of scalar equations as exact series.

    eq_pair maps candidate series (starred, unstarred) to the two
    expressions that must vanish; both unknowns start at degree one in
    ``sources``.  Degree by degree the new coefficients enter linearly, so
    each step is one linear solve.
    """
    ss, su = sources
    ustar = sp.Integer(0)
    u = sp.Integer(0)
    for n in range(1, order + 1):
        unknowns = []
        h_star = sp.Integer(0)
        h_unstar = sp.Integer(0)
        for a in range(n + 1):
            b = n - a
            cs = sp.Symbol(f"cs_{a}_{b}")
            cu = sp.Symbol(f"cu_{a}_{b}")
            unknowns += [cs, cu]
            h_star += cs * ss**a * su**b
            h_unstar += cu * ss**a * su**b
        e_star, e_unstar = eq_pair(ustar + h_star, u + h_unstar)
        conditions = []
        for expr in (e_star, e_unstar):
            poly = sp.Poly(sp.expand(expr), ss, su)
            for (a, b), coeff in poly.terms():
                if a + b == n:
                    conditions.append(coeff)
        solution = sp.solve(conditions, unknowns, dict=True)
        assert len(solution) == 1
        ustar = sp.expand(ustar + h_star.subs(solution[0]))
        u = sp.expand(u + h_unstar.subs(solution[0]))
    return ustar, u


@pytest.fixture(scope="module")
def background():
    def equations(phi_star, phi):
        return (2 * phi_star + 2 * G * phi_star * phi - PSI_STAR,
                2 * phi + G * phi**2 - PSI)

    return undetermined_pair(equations, (PSI_STAR, PSI), ORDER)


@pytest.fixture(scope="module")
def critical(background):
    bg_star, bg_unstar = background
    sources = (THETA_STAR, THETA)

    def equations(psi_star, psi):
        sub = {PSI_STAR: psi_star, PSI: psi}
        return (2 * psi_star - THETA_STAR
                - substitute_truncated(bg_star, sub, sources, ORDER),
                2 * psi - THETA
                - substitute_truncated(bg_unstar, sub, sources, ORDER))

    return undetermined_pair(equations, (THETA_STAR, THETA), ORDER)


@pytest.fixture(scope="module")
def nextscale():
    def equations(phi_star, phi):
        return (sp.Rational(3, 2) * phi_star + 2 * G * phi_star * phi
                - THETA_STAR / 2,
                sp.Rational(3, 2) * phi + G * phi**2 - THETA / 2)

    return undetermined_pair(equations, (THETA_STAR, THETA), ORDER)


def truncate(expr, sources, order):
    poly = sp.Poly(sp.expand(expr), *sources)
    out = sp.Integer(0)
    for (a, b), coeff in poly.terms():
        if a + b <= order:
            out += coeff * sources[0] ** a * sources[1] ** b
    return sp.expand(out)


def substitute_truncated(expr, sub, sources, order):
    """truncate(expr.subs(sub), sources, order), truncating after every
    product so that no power beyond ``order`` is ever expanded.

    The substituted series have no negative powers of ``sources``, so the
    terms kept at each step are exactly those of the full expansion.
    """
    olds = list(sub)
    powers = {}

    def power(i, k):
        if k == 0:
            return sp.Integer(1)
        if (i, k) not in powers:
            powers[(i, k)] = truncate(power(i, k - 1) * sub[olds[i]], sources, order)
        return powers[(i, k)]

    out = sp.Integer(0)
    for exps, coeff in sp.Poly(expr, *olds).terms():
        term = coeff
        for i, k in enumerate(exps):
            term = truncate(term * power(i, k), sources, order)
        out += term
    return sp.expand(out)


def test_background_rationals(background):
    bg_star, bg_unstar = background
    want_unstar = (PSI / 2 - G * PSI**2 / 8 + G**2 * PSI**3 / 16
                   - sp.Rational(5, 128) * G**3 * PSI**4
                   + sp.Rational(7, 256) * G**4 * PSI**5)
    want_star = PSI_STAR / 2 * (1 - G * PSI / 2 + sp.Rational(3, 8) * G**2 * PSI**2
                                - sp.Rational(5, 16) * G**3 * PSI**3
                                + sp.Rational(35, 128) * G**4 * PSI**4)
    assert sp.expand(bg_unstar - want_unstar) == 0
    assert sp.expand(bg_star - want_star) == 0


def test_background_closed_form(background):
    # the unstarred equation is quadratic with root (sqrt(1+g psi)-1)/g
    _, bg_unstar = background
    closed = (sp.sqrt(1 + G * PSI) - 1) / G
    series = sp.series(closed, PSI, 0, ORDER + 1).removeO()
    assert sp.expand(bg_unstar - series) == 0


def test_critical_rationals(critical):
    cr_star, cr_unstar = critical
    want_unstar = (sp.Rational(2, 3) * THETA - G * THETA**2 / 27
                   + sp.Rational(4, 243) * G**2 * THETA**3
                   - sp.Rational(20, 2187) * G**3 * THETA**4
                   + sp.Rational(112, 19683) * G**4 * THETA**5)
    want_star = THETA_STAR * (sp.Rational(2, 3) - sp.Rational(2, 27) * G * THETA
                              + sp.Rational(4, 81) * G**2 * THETA**2
                              - sp.Rational(80, 2187) * G**3 * THETA**3
                              + sp.Rational(560, 19683) * G**4 * THETA**4)
    assert sp.expand(cr_unstar - want_unstar) == 0
    assert sp.expand(cr_star - want_star) == 0


def test_nextscale_rationals(nextscale):
    ns_star, ns_unstar = nextscale
    want_unstar = (THETA / 3 - sp.Rational(2, 27) * G * THETA**2
                   + sp.Rational(8, 243) * G**2 * THETA**3
                   - sp.Rational(40, 2187) * G**3 * THETA**4
                   + sp.Rational(224, 19683) * G**4 * THETA**5)
    want_star = THETA_STAR * (sp.Rational(1, 3) - sp.Rational(4, 27) * G * THETA
                              + sp.Rational(8, 81) * G**2 * THETA**2
                              - sp.Rational(160, 2187) * G**3 * THETA**3
                              + sp.Rational(1120, 19683) * G**4 * THETA**4)
    assert sp.expand(ns_unstar - want_unstar) == 0
    assert sp.expand(ns_star - want_star) == 0


def test_composition_symbolic(background, critical, nextscale):
    # substituting the critical series into the background series
    # reproduces the next-scale series, exactly, order by order
    bg_star, bg_unstar = background
    cr_star, cr_unstar = critical
    ns_star, ns_unstar = nextscale
    sub = {PSI_STAR: cr_star, PSI: cr_unstar}
    sources = (THETA_STAR, THETA)
    diff_u = truncate(bg_unstar.subs(sub) - ns_unstar, sources, ORDER)
    diff_s = truncate(bg_star.subs(sub) - ns_star, sources, ORDER)
    assert diff_u == 0
    assert diff_s == 0


def test_representation_symbolic(background, critical, nextscale):
    # 2 psi_cr = theta + phi_check(theta*, theta) term by term
    cr_star, cr_unstar = critical
    ns_star, ns_unstar = nextscale
    sources = (THETA_STAR, THETA)
    assert truncate(2 * cr_unstar - THETA - ns_unstar, sources, ORDER) == 0
    assert truncate(2 * cr_star - THETA_STAR - ns_star, sources, ORDER) == 0


def coefficient_table(expr, sources, order):
    poly = sp.Poly(sp.expand(expr.subs(G, 1)), *sources)
    table = {}
    for (a, b), coeff in poly.terms():
        if a + b <= order:
            table[(a, b)] = float(coeff)
    return table


def test_package_matches_oracle(background, critical, nextscale):
    spec = scalar_reference_spec(g=1.0)
    bg = solvers.fps_background(spec, max_order=ORDER)
    cr = solvers.fps_critical(spec, bg, max_order=ORDER)
    ns = solvers.fps_nextscale(spec, max_order=ORDER)
    cases = [
        (bg.starred, background[0], (PSI_STAR, PSI)),
        (bg.unstarred, background[1], (PSI_STAR, PSI)),
        (cr.starred, critical[0], (THETA_STAR, THETA)),
        (cr.unstarred, critical[1], (THETA_STAR, THETA)),
        (ns.starred, nextscale[0], (THETA_STAR, THETA)),
        (ns.unstarred, nextscale[1], (THETA_STAR, THETA)),
    ]
    for series, exact, sources in cases:
        table = coefficient_table(exact, sources, ORDER)
        for key in series.coeffs:
            got = complex(np.asarray(series.coeffs[key]).reshape(-1)[0])
            want = table.get(key, 0.0)
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-13 * max(1.0, abs(want))
