"""Analytic oracles: frozen values, rational identities and cross-checks
between independent evaluation routes."""

import math
from fractions import Fraction

import pytest

from nrrw import oracles
from nrrw.engine import PrngStream
from nrrw.oracles import (
    GEOMETRIC_RETURN_RATE, NON_ROOT, ROOT_VARIANT, LazyWalkSpec,
    StarProcessSpec, bounce_bound_exact, bounce_bounds, bounce_envelope,
    generalized_harmonic, lazy_walk_drift, lazy_walk_return_probability,
    leaf_fraction_lower_bound, simulate_lazy_walk, simulate_star, star_tail,
    star_tail_enumerated, star_tail_exact, t_ccdf, t_ccdf_exact,
    t_expectation, t_mean_partial_sum, t_mean_partial_sum_exact, t_pmf,
    t_pmf_exact, zeta,
)


class TestHittingTimePmf:
    def test_frozen_values(self):
        assert t_pmf_exact(2, 0) == Fraction(1, 2)
        assert t_pmf_exact(2, 1) == Fraction(1, 6)
        assert t_pmf_exact(2, 2) == Fraction(1, 12)
        assert t_pmf_exact(4, 0) == Fraction(1, 2)
        assert t_pmf_exact(4, 1) == Fraction(1, 4)
        assert t_pmf_exact(4, 2) == Fraction(1, 12)
        assert t_ccdf_exact(2, 0) == 1
        assert t_ccdf_exact(2, 1) == Fraction(1, 2)
        assert t_ccdf_exact(4, 3) == Fraction(1, 6)

    def test_float_wrappers(self):
        assert t_pmf(2, 1) == pytest.approx(1.0 / 6.0)
        assert t_ccdf(2, 1) == 0.5

    @pytest.mark.parametrize("s", [2, 4, 6, 8])
    def test_pmf_is_ccdf_difference(self, s):
        for k in range(40):
            assert (t_ccdf_exact(s, k) - t_ccdf_exact(s, k + 1)
                    == t_pmf_exact(s, k))

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_telescoping_to_one(self, s):
        big_k = 30
        total = sum(t_pmf_exact(s, k) for k in range(big_k + 1))
        assert total + t_ccdf_exact(s, big_k + 1) == 1

    def test_block_boundary_values(self):
        # at k = q * s/2 the ccdf collapses to (q+1)^(-s/2)
        for s in (2, 4, 6):
            a = s // 2
            for q in range(5):
                assert t_ccdf_exact(s, q * a) == Fraction(1, (q + 1) ** a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            t_pmf_exact(3, 0)
        with pytest.raises(ValueError):
            t_pmf_exact(0, 0)
        with pytest.raises(ValueError):
            t_pmf_exact(2, -1)
        with pytest.raises(ValueError):
            t_ccdf_exact(2, -1)


class TestZetaAndExpectation:
    def test_zeta_against_closed_forms(self):
        assert zeta(2) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)
        assert zeta(4) == pytest.approx(math.pi ** 4 / 90.0, abs=1e-10)

    def test_zeta_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        for a in (2, 3, 4, 5):
            assert zeta(a) == pytest.approx(float(scipy_special.zeta(a, 1)),
                                            abs=1e-10)

    def test_expectation_values(self):
        assert t_expectation(2) == math.inf
        assert t_expectation(4) == pytest.approx(4.2898681337, abs=1e-7)
        assert t_expectation(6) == pytest.approx(3.4041138064, abs=1e-7)

    def test_leaf_fraction_bound(self):
        assert leaf_fraction_lower_bound(2) == 1.0
        assert leaf_fraction_lower_bound(4) == pytest.approx(
            1.0 - 1.0 / 4.2898681337, abs=1e-7)

    def test_zeta_rejects_small_argument(self):
        with pytest.raises(ValueError):
            zeta(1)


class TestPartialMeanSums:
    @pytest.mark.parametrize("s,blocks", [(2, 1), (2, 7), (4, 5), (6, 3)])
    def test_closed_form_matches_rational(self, s, blocks):
        exact = float(t_mean_partial_sum_exact(s, blocks))
        fast = t_mean_partial_sum(s, blocks)
        assert fast == pytest.approx(exact, rel=1e-12)

    def test_closed_form_matches_direct_float(self):
        s, blocks = 4, 200
        direct = sum((2 * k + 1) * t_pmf(s, k)
                     for k in range(blocks * (s // 2)))
        assert t_mean_partial_sum(s, blocks) == pytest.approx(direct,
                                                              rel=1e-10)

    def test_s2_partial_sums_grow_without_bound(self):
        values = [t_mean_partial_sum(2, 10 ** e) for e in (2, 4, 6, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert t_mean_partial_sum(2, 2 * 10 ** 11) > 50.0

    def test_even_s_partial_sums_approach_expectation(self):
        for s in (4, 6):
            target = t_expectation(s)
            assert abs(t_mean_partial_sum(s, 10 ** 6) - target) < 1e-5

    def test_harmonic_asymptotic_continuity(self):
        # the direct sum and the asymptotic formula agree where they meet
        m = 10 ** 7
        direct = generalized_harmonic(m, 1)
        asymptotic = (math.log(m) + 0.5772156649015329
                      + 1.0 / (2 * m) - 1.0 / (12 * m * m))
        assert direct == pytest.approx(asymptotic, abs=1e-9)


class TestStarProcess:
    def test_frozen_tails(self):
        assert star_tail_exact(2, 1, NON_ROOT) == 1
        assert star_tail_exact(2, 4, NON_ROOT) == Fraction(1, 4)
        assert star_tail_exact(4, 2, NON_ROOT) == Fraction(1, 4)
        assert star_tail_exact(2, 1, ROOT_VARIANT) == 1
        assert star_tail_exact(2, 3, ROOT_VARIANT) == Fraction(1, 6)
        assert star_tail(2, 2) == 0.5

    @pytest.mark.parametrize("s", [2, 4])
    @pytest.mark.parametrize("variant", [NON_ROOT, ROOT_VARIANT])
    def test_enumeration_matches_closed_form(self, s, variant):
        for k in range(1, 4):
            assert (star_tail_enumerated(s, k, variant)
                    == star_tail_exact(s, k, variant))

    def test_simulation_stops_at_odd_times(self):
        rng = PrngStream(7)
        spec = StarProcessSpec(2, NON_ROOT, max_time=10_001)
        for _ in range(200):
            res = simulate_star(spec, rng)
            if res.stop_time is not None:
                assert res.stop_time % 2 == 1

    def test_simulation_matches_hitting_time_pmf(self):
        rng = PrngStream(11)
        spec = StarProcessSpec(4, NON_ROOT, max_time=10_001)
        n = 20_000
        hits = 0
        for _ in range(n):
            res = simulate_star(spec, rng)
            if res.stop_time == 1:
                hits += 1
        p = t_pmf(4, 0)  # stop at t=1 means T = 2*0+1
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 4 * sigma

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            star_tail_exact(2, 0)
        with pytest.raises(ValueError):
            star_tail_exact(2, 1, "sideways")
        with pytest.raises(ValueError):
            StarProcessSpec(3)


class TestLazyWalk:
    def test_return_probability_solve(self):
        assert abs(lazy_walk_return_probability() - 2.0 / 3.0) < 1e-9
        assert GEOMETRIC_RETURN_RATE == 2.0 / 3.0

    def test_drift(self):
        assert lazy_walk_drift() == pytest.approx(1.0 / 6.0)

    def test_return_counts_are_near_geometric(self):
        rng = PrngStream(13)
        spec = LazyWalkSpec()
        n = 4000
        counts = [simulate_lazy_walk(spec, 3000, rng) for _ in range(n)]
        # returns within a finite horizon are dominated by the full-time
        # geometric count, so the empirical ccdf sits below (2/3)^k
        for k in (1, 2, 4, 8):
            emp = sum(1 for c in counts if c >= k) / n
            assert emp <= (2.0 / 3.0) ** k + 0.03

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            LazyWalkSpec(up_probability=0.9, down_probability=0.2)
        with pytest.raises(ValueError):
            simulate_lazy_walk(LazyWalkSpec(), 0, PrngStream(0))


class TestBounceBound:
    def test_frozen_values(self):
        assert bounce_bound_exact(2, 1) == Fraction(3, 4)
        assert bounce_bound_exact(1, 1) == Fraction(1, 2)
        assert bounce_bound_exact(2, 2) == Fraction(3, 4) * Fraction(5, 6)
        assert bounce_bounds(3, 2) == [5 / 6, 35 / 48]
        assert bounce_bounds(1, 0) == []

    @pytest.mark.parametrize("d0", [1, 2, 3, 10, 99_999])
    def test_bounds_round_the_exact_product(self, d0):
        assert bounce_bounds(d0, 30) == [float(bounce_bound_exact(d0, k))
                                         for k in range(1, 31)]

    def test_product_recursion(self):
        for d0 in (1, 2, 5):
            for k in range(1, 10):
                step = Fraction(2 * (d0 + k) - 1, 2 * (d0 + k))
                assert (bounce_bound_exact(d0, k + 1)
                        == bounce_bound_exact(d0, k) * step)

    def test_envelope_dominates_bound(self):
        for d0 in (1, 2, 3, 10):
            for k, bound in enumerate(bounce_bounds(d0, 39), 1):
                assert bound <= bounce_envelope(d0, k) + 1e-12

    def test_envelope_shapes(self):
        assert bounce_envelope(1, 9) == pytest.approx(1.0 / 3.0)
        assert bounce_envelope(2, 1) == pytest.approx(math.sqrt(2.0))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bounce_bound_exact(0, 1)
        with pytest.raises(ValueError):
            bounce_bounds(0, 30)
        with pytest.raises(ValueError):
            bounce_envelope(1, 0)
