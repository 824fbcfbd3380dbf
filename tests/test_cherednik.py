"""E_gamma by intertwiner steps: agreement with the oracle, its checks, its reduction."""
from __future__ import annotations

import itertools
import random

import pytest

from siflag import cherednik, cli, macdonald
from siflag.cherednik import _Factored, cherednik_E
from siflag.macdonald import bar_conjugate, gram_schmidt_E, specialize, triangular_order_ideal
from siflag.qt import Poly, QTRat
from siflag.rootdata import Weight, build_root_system, minimal_coset_reps
from siflag.verify import dominant_weights
from siflag.weylchar import cor_family, genweyl_char

TYPES = {name: build_root_system(name[0], int(name[1:])) for name in ("A1", "A2", "B2", "C2", "G2")}


def _orbits(rs, weights) -> list[Weight]:
    """The weights grouped by W-orbit, so that each orbit shares the oracle's pairing table."""
    return sorted(map(Weight, weights), key=lambda nu: rs.dominant_representative(nu)[0].coords)


# the 46 cold weights: A1 |gamma| <= 6, every A2, B2 and C2 weight with
# coordinates in {-1, 0, 1}, and the G2 weights of height one
COLD_WEIGHTS = {
    "A1": [(g,) for g in range(-6, 7)],
    **{name: list(itertools.product((-1, 0, 1), repeat=2)) for name in ("A2", "B2", "C2")},
    "G2": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)],
}


def _assert_equals_the_oracle(rs, gamma):
    # every num and den, and an entry for every member of the strict ideal,
    # zeros included: emit prints each one
    got, want = cherednik_E(rs, gamma), gram_schmidt_E(rs, gamma)
    assert got.gamma == gamma
    assert set(got.coeffs) == set(want.coeffs) == set(triangular_order_ideal(rs, gamma))
    for nu, c in want.coeffs.items():
        assert (got.coeffs[nu].num, got.coeffs[nu].den) == (c.num, c.den), (gamma, nu)


@pytest.mark.parametrize("name", sorted(COLD_WEIGHTS))
def test_cherednik_E_equals_the_gram_schmidt_oracle(name):
    rs = TYPES[name]
    for gamma in _orbits(rs, COLD_WEIGHTS[name]):
        _assert_equals_the_oracle(rs, gamma)
    assert sum(map(len, COLD_WEIGHTS.values())) == 46


def test_a1_anchor():
    # E_{-1} = e^{-1} + (1 - t)/(1 - q t) e^{1}, E_1 = e^1
    rs = TYPES["A1"]
    one, q, t = QTRat.one(), QTRat.q(), QTRat.t()
    assert cherednik_E(rs, Weight((-1,))).coeffs == {Weight((-1,)): one,
                                                     Weight((1,)): (one - t) / (one - q * t)}
    assert cherednik_E(rs, Weight((1,))).coeffs == {Weight((1,)): one}


def test_only_the_oracle_has_a_scope():
    a3, gamma = build_root_system("A", 3), Weight((-1, 0, 0))
    assert cherednik_E(a3, gamma).gamma == gamma
    with pytest.raises(ValueError) as exc:
        gram_schmidt_E(a3, gamma)
    assert str(exc.value) == "oracle scope is rank <= 2"


# the cor cases at weight sum one, one per minimal coset representative w of each lambda
COR_CASES = {"A3": 14, "B3": 26, "C3": 26, "D4": 48}


@pytest.mark.parametrize("name", sorted(COR_CASES))
def test_cherednik_E_specializes_to_the_cor_family_beyond_rank_two(name):
    """E^dagger_{-w lam}(q^-1, infinity) is the T_i recursion's cor family, where the oracle does not run.

    At the longest w the t = 0 end, E^dagger_{-lam}(q, 0), is also
    ch W_{w lam}, as verify's cor suite checks against the oracle.  This
    check is not independent of charpoly.letter_runs: cherednik_E reads its
    D_i runs there, and so do the Demazure operators behind cor_family and
    genweyl_char, so a wrong run could cancel between the two sides.
    """
    rs = build_root_system(name[0], int(name[1:]))
    checked = 0
    for lam in dominant_weights(rs, 1):
        reps = minimal_coset_reps(rs, lam)
        longest = max(w.length() for w in reps)
        for w in reps:
            got = specialize(bar_conjugate(cherednik_E(rs, -w.act(lam))), ("t-inf", "q-inv"))
            assert got == cor_family(rs, w, lam), (lam, w.word())
            if w.length() == longest:
                zero_end = specialize(bar_conjugate(cherednik_E(rs, -lam)), "t-0")
                assert zero_end == genweyl_char(rs, w, lam).value, lam
            checked += 1
    assert checked == COR_CASES[name]


def test_emac_builds_no_density(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("emac reached the oracle's density")

    monkeypatch.setattr(macdonald, "density_table", refuse)
    monkeypatch.setattr(macdonald, "_PAIR_CACHE", {})
    for argv in (["--type", "A1", "--gamma=-4"], ["--type", "G2", "--gamma=-1,0"]):
        assert cli.main(["emac", *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out


# weights where two members of the ideal share the eigenvalue of Cherednik's
# Y = Y^{2 rho^vee}, which a solve with that one operator cannot separate
SHARED_EIGENVALUE_WEIGHTS = {
    "A2": [(-2, 2), (2, -2)],
    "B2": [(-2, 2)],
    "C2": [(2, -2)],
    "G2": [(-3, 2)],
}


@pytest.mark.parametrize("name", sorted(SHARED_EIGENVALUE_WEIGHTS))
def test_cherednik_E_equals_the_oracle_where_y_eigenvalues_coincide(name):
    for gamma in SHARED_EIGENVALUE_WEIGHTS[name]:
        _assert_equals_the_oracle(TYPES[name], Weight(gamma))


def test_g2_past_the_oracle_truncation_matches_cor_at_t_infinity():
    # G2 (2, -2) = -s1 (2, 0) stops the oracle at its default truncation; its
    # t = infinity end is the T_i recursion's E^dagger_{-s1 (2, 0)}(q^-1, infinity)
    rs = TYPES["G2"]
    s1, lam = rs.simple_reflection(1), Weight((2, 0))
    gamma = -s1.act(lam)
    assert gamma == Weight((2, -2))
    got = specialize(bar_conjugate(cherednik_E(rs, gamma)), ("t-inf", "q-inv"))
    assert got == cor_family(rs, s1, lam)


def _plus_minus_omegas(rank: int) -> list[tuple]:
    return [tuple(sign * (j == i) for j in range(rank)) for i in range(rank) for sign in (1, -1)]


# emac over the boxes [-2, 2]^2 and [-1, 1]^3, on G2's two weights past the Y
# collisions, and on every +-omega_i of B3, C3, A4, B4, C4, D4 and F4 but
# F4 -omega_2, which alone takes seconds
EMAC_BOX = {
    **{name: list(itertools.product(range(-2, 3), repeat=2)) for name in ("A2", "B2", "C2")},
    "G2": [(2, -2), (-3, 2)],
    "A3": list(itertools.product((-1, 0, 1), repeat=3)),
    **{name: _plus_minus_omegas(int(name[1])) for name in ("B3", "C3", "A4", "B4", "C4", "D4")},
    "F4": [gamma for gamma in _plus_minus_omegas(4) if gamma != (0, -1, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(EMAC_BOX))
def test_emac_exits_0_on_every_weight_of_the_box(capsys, name):
    for gamma in EMAC_BOX[name]:
        assert cli.main(["emac", "--type", name, "--gamma=" + ",".join(map(str, gamma)),
                         "--format", "json"]) == 0, gamma
        assert capsys.readouterr().out


# -- the path's checks, each an explicit raise ------------------------------------------


def test_a_step_lead_that_is_no_monomial_raises(monkeypatch):
    # every T_i image doubled: the step to s_i gamma leads with 2
    t_image = cherednik._Path.t_image
    monkeypatch.setattr(cherednik._Path, "t_image",
                        lambda self, i, wt: {mu: tp.scale(2) for mu, tp in t_image(self, i, wt).items()})
    with pytest.raises(AssertionError, match="not a monomial"):
        cherednik_E(TYPES["B2"], Weight((0, -1)))


def test_a_term_outside_gammas_order_ideal_raises(monkeypatch):
    # every image given one more term, far above every member of the ideal
    image = cherednik._Path.image

    def stray(self, i, wt):
        return {**image(self, i, wt), (wt[0] + 10,) + wt[1:]: Poly({1: 1})}

    monkeypatch.setattr(cherednik._Path, "image", stray)
    with pytest.raises(AssertionError, match="outside gamma's order ideal"):
        cherednik_E(TYPES["A2"], Weight((-1, 0)))


# -- the reduction over known factors ---------------------------------------------------


def _poly(terms: dict) -> Poly:
    """{(q-degree, t-degree): int} as a Poly in q over Z[t]."""
    out: dict = {}
    for (n, d), c in terms.items():
        if c:
            out.setdefault(n, {})[d] = c
    return Poly({n: Poly(tp) for n, tp in out.items()})


def _random_poly(rng, terms=4, degree=4) -> Poly:
    while True:
        got = _poly({(rng.randrange(degree), rng.randrange(degree)): rng.randint(-3, 3)
                     for _ in range(terms)})
        if got:
            return got


def _product(factors) -> Poly:
    out = _poly({(0, 0): 1})
    for f in factors:
        out = out * f
    return out


BINOMIALS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2))
KEYS = [(d, u, v) for d in (1, 2, 3, 4, 6) for u, v in BINOMIALS]


def test_gap_factors_multiply_back_to_the_gap():
    # mixed-sign exponent differences such as (1, -1) included
    rng = random.Random("gaps")
    for _ in range(300):
        a, b, c, d = (rng.randrange(7) for _ in range(4))
        if (a, b) == (c, d):
            continue
        sign, e, f, keys = cherednik._gap_factors((a, b), (c, d))
        got = _product([_poly({(e, f): sign})] + [cherednik._phi(key) for key in keys])
        assert got == _poly({(a, b): 1}) - _poly({(c, d): 1}), ((a, b), (c, d))


def test_cyclotomic_coefficients():
    assert cherednik._cyclotomic(1) == {0: -1, 1: 1}
    assert cherednik._cyclotomic(6) == {0: 1, 1: -1, 2: 1}
    assert cherednik._cyclotomic(12) == {0: 1, 2: -1, 4: 1}
    assert cherednik._cyclotomic(15) == {0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 7: -1, 8: 1}


def test_factor_reduction_is_the_gcd_reduced_form():
    # num and den share random known factors: reducing over the multiset must
    # give QTRat(num, den), the form the bivariate gcd gives
    rng = random.Random("factored")
    for _ in range(60):
        phis = {key: rng.randint(1, 2) for key in rng.sample(KEYS, rng.randint(0, 3))}
        qa, tb = rng.randrange(3), rng.randrange(3)
        den = _product([_poly({(qa, tb): 1})]
                       + [cherednik._phi(key) for key, m in phis.items() for _ in range(m)])
        shared = [cherednik._phi(key) for key in phis if rng.random() < 0.6]
        if qa and rng.random() < 0.5:
            shared.append(_poly({(1, 0): 1}))
        if tb and rng.random() < 0.5:
            shared.append(_poly({(0, 1): 1}))
        num = _product([_random_poly(rng)] + shared).scale(rng.choice((1, -1, 2)))
        got = _Factored(num, qa, tb, phis).reduced().value()
        want = QTRat(num, den)
        assert (got.num, got.den) == (want.num, want.den)


def test_sum_of_products_matches_poly_arithmetic():
    rng = random.Random("kronecker")
    for _ in range(40):
        rows = [(rng.randrange(3), rng.randrange(3),
                 [(_random_poly(rng, terms=5, degree=5), rng.randint(0, 2)) for _ in range(3)])
                for _ in range(rng.randint(1, 3))]
        want = Poly()
        for a, b, factors in rows:
            want = want + _product([_poly({(a, b): 1})]
                                   + [f for f, e in factors for _ in range(e)])
        assert cherednik._sum_of_products(rows) == want


def test_binomial_test_agrees_with_exact_division():
    # for a key (1, u, v), mixed signs included: _on_binomial finds nothing
    # exactly when x - y divides, on multiples of it and on other polynomials
    rng = random.Random("binomial")
    for _ in range(300):
        u, v = rng.choice(BINOMIALS)
        f = cherednik._phi((1, u, v))
        num = _random_poly(rng, terms=5, degree=5)
        if rng.random() < 0.5:
            num = num * f
        try:
            num // f
            divides = True
        except ValueError:
            divides = False
        assert (not cherednik._on_binomial(num, u, v)) == divides, (num, u, v)
