import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad

from netdp.core import PrivacyBudget
from netdp.errors import InfeasibleError, ValidityWindowError
from netdp import accountant as acct
from netdp import dpml


class TestAdvancedComposition:
    def test_golden_single_release(self):
        # sqrt(2 ln 1e5) * 0.1 + 0.1 (e^0.1 - 1), frozen from direct evaluation
        b = acct.advanced_composition(0.1, 0.0, 1, 1e-5)
        assert b.epsilon == pytest.approx(0.4903696830263729, rel=1e-12)

    def test_zero_releases_rejected(self):
        with pytest.raises(ValueError):
            acct.advanced_composition(0.1, 0.0, 0, 1e-5)

    def test_eps_vanishes_with_eps(self):
        b = acct.advanced_composition(1e-9, 0.0, 1, 1e-5)
        assert b.epsilon < 1e-6

    def test_delta_is_exact_arithmetic(self):
        b = acct.advanced_composition(0.1, 1e-6, 5, 1e-5)
        assert b.delta == pytest.approx(5e-6 + 1e-5, rel=1e-15)

    def test_hetero_matches_homogeneous(self):
        hom = acct.advanced_composition(0.2, 0.0, 7, 1e-4).epsilon
        het = acct.advanced_composition_hetero([0.2] * 7, 1e-4)
        assert het == pytest.approx(hom, rel=1e-12)
        assert acct.advanced_composition_hetero([], 1e-4) == 0.0


class TestSimpleComposition:
    def test_hand_values(self):
        assert acct.simple_composition(0.2, 0.0, 3).epsilon == pytest.approx(0.6)
        assert acct.simple_composition(1.0, 0.0, 1).epsilon == 1.0

    def test_advanced_beats_simple_for_many_small_releases(self):
        # advanced <= simple once K exceeds 2 ln(1/d') / (2 - e^eps)^2
        delta_prime = 1e-5
        for eps in (0.05, 0.1, 0.2, 0.4):
            k_min = math.ceil(2 * math.log(1 / delta_prime) / (2 - math.exp(eps)) ** 2)
            for K in (k_min, 2 * k_min, 10 * k_min):
                adv = acct.advanced_composition(eps, 0.0, K, delta_prime).epsilon
                simple = acct.simple_composition(eps, 0.0, K).epsilon
                assert adv <= simple


class TestChernoffVisitBound:
    def test_golden(self):
        n = 10
        got = acct.chernoff_visit_bound(100 * n, 1 / n, 1e-3)
        assert got == pytest.approx(145.52281388155438, rel=1e-12)

    def test_weak_failure_probability_limit(self):
        # delta_hat -> 1 collapses the bound to the mean T p
        got = acct.chernoff_visit_bound(1000, 0.1, 1 - 1e-12)
        assert got == pytest.approx(100.0, abs=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            acct.chernoff_visit_bound(0, 0.1, 0.5)
        with pytest.raises(ValueError):
            acct.chernoff_visit_bound(10, 0.0, 0.5)
        with pytest.raises(ValueError):
            acct.chernoff_visit_bound(10, 0.1, 1.0)


class TestSubsampleAmplify:
    def test_no_subsampling_single_user(self):
        assert acct.subsample_amplify(1.0, 1, 1) == pytest.approx(1.0, rel=1e-12)

    def test_golden(self):
        got = acct.subsample_amplify(1.0, 100, 1)
        assert got == pytest.approx(0.017036863236176657, rel=1e-12)

    def test_monotone_in_m_and_eps(self):
        ms = np.arange(1, 51)
        vals = np.array([acct.subsample_amplify(0.8, 50, int(m)) for m in ms])
        assert np.all(np.diff(vals) > 0)
        es = np.linspace(0.05, 2.0, 30)
        vals = np.array([acct.subsample_amplify(float(e), 50, 10) for e in es])
        assert np.all(np.diff(vals) > 0)


class TestCycleBoundSum:
    def test_hand_values(self):
        assert acct.cycle_bound_sum(1.0, 9) == pytest.approx(1.0)
        assert acct.cycle_bound_sum(0.5, 100) == pytest.approx(0.15)

    def test_eps_above_one_rejected(self):
        with pytest.raises(ValidityWindowError):
            acct.cycle_bound_sum(1.5, 9)
        assert acct.cycle_bound_sum(1.5, 9, unchecked=True) == pytest.approx(1.5)

    def test_dominates_exact_amplification_small_grid(self):
        # the closed-form cap dominates the exact per-cycle value
        for n in (10, 100):
            for eps in (0.1, 0.5, 1.0):
                cap = acct.cycle_bound_sum(eps, n)
                for m in range(1, n + 1):
                    assert acct.subsample_amplify(eps / math.sqrt(m), n, m) <= cap


class TestRingSumBound:
    def test_utility_factor(self):
        assert acct.ring_sum_bound(0.1, 0.0, 1, 1e-5, n=2).intermediates[
            "utility_stddev_factor"
        ] == pytest.approx(math.sqrt(2))
        assert acct.ring_sum_bound(0.1, 0.0, 10, 1e-5, n=100).intermediates[
            "utility_stddev_factor"
        ] == pytest.approx(math.sqrt(10))

    def test_privacy_delegates_to_advanced_composition(self):
        # recomposed from the report's inputs alone
        for args in [(0.3, 1e-7, 5, 1e-4, 50), (0.05, 0.0, 200, 1e-6, 1000), (1.5, 1e-5, 1, 1e-3, 2)]:
            rep = acct.ring_sum_bound(*args)
            i = rep.inputs
            b = acct.advanced_composition(i["eps"], i["delta"], i["K"], i["delta_prime"])
            assert rep.epsilon_out == b.epsilon
            assert rep.delta_out == b.delta


class TestRingHistBound:
    def test_golden_gamma(self):
        rep = acct.ring_hist_bound(0.1, 1e-3, 10**4, 5, 2, 1e-5)
        assert rep.intermediates["gamma"] == pytest.approx(0.9842317417482904, rel=1e-12)

    def test_expected_responses_init_only(self):
        # K=0 releases nothing data-dependent; responses reduce to the
        # gamma * n init block
        rep = acct.ring_hist_bound(0.1, 1e-3, 10**4, 0, 2, 1e-5)
        gamma = rep.intermediates["gamma"]
        assert rep.intermediates["expected_random_responses"] == pytest.approx(gamma * 10**4)
        assert rep.epsilon_out == 0.0

    def test_gamma_monotone_in_n(self):
        # the randomizer's local budget 12 eps sqrt(ln(1/delta)/n) shrinks
        # with n, so the flip probability gamma grows toward 1: more users
        # buy stronger per-response randomization at the same visit budget
        eps0s = [
            acct.ring_hist_bound(0.1, 1e-3, n, 2, 4, 1e-5).intermediates["rr_local_eps"]
            for n in (2000, 5000, 10**4, 10**5)
        ]
        assert all(a > b for a, b in zip(eps0s, eps0s[1:]))
        gammas = [
            acct.ring_hist_bound(0.1, 1e-3, n, 2, 4, 1e-5).intermediates["gamma"]
            for n in (2000, 5000, 10**4, 10**5)
        ]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_validity_window(self):
        with pytest.raises(ValidityWindowError):
            acct.ring_hist_bound(0.1, 1e-3, 500, 2, 4, 1e-5)
        rep = acct.ring_hist_bound(0.1, 1e-3, 500, 2, 4, 1e-5, unchecked=True)
        assert rep.unchecked


def eval_complete_sum_display(eps, n, T, delta_prime, delta_hat):
    """Independent spelled-out re-evaluation of the summation bound: advanced
    composition over k = 2T/n + sqrt(3T/n ln(1/delta_hat)) cycles at
    eps_c = 3 eps / sqrt(n)."""
    k = 2 * T / n + math.sqrt(3 * T / n * math.log(1 / delta_hat))
    eps_c = 3 * eps / math.sqrt(n)
    return math.sqrt(2 * k * math.log(1 / delta_prime)) * eps_c + k * eps_c * (math.exp(eps_c) - 1)


class TestCompleteSumBound:
    def test_degenerate_single_user_is_finite(self):
        rep = acct.complete_sum_bound(1.0, 1e-6, 1, 1, 1e-3, 1e-3)
        assert rep.intermediates["N_v"] == pytest.approx(1 + math.sqrt(3 * math.log(1e3)))
        assert math.isfinite(rep.epsilon_out) and rep.epsilon_out > 0

    def test_matches_independent_re_evaluation(self):
        eps, n, T = 0.5, 1000, 100 * 1000
        rep = acct.complete_sum_bound(eps, 1e-7, n, T, 1e-3, 1e-3)
        assert rep.epsilon_out == pytest.approx(
            eval_complete_sum_display(eps, n, T, 1e-3, 1e-3), rel=1e-10
        )
        # frozen from the same direct evaluation
        assert rep.epsilon_out == pytest.approx(3.328354753326045, rel=1e-12)
        assert rep.delta_out == pytest.approx(rep.intermediates["num_cycles"] * 1e-7 + 2e-3)

    def test_beats_local_baseline_from_twenty_users(self):
        for n in (20, 50, 100, 1000, 10**4):
            T = 100 * n
            net = acct.complete_sum_bound(0.5, 1e-7, n, T, 1e-3, 1e-3)
            local = acct.local_baseline_sum(0.5, 1e-7, net.intermediates["N_v"], 1e-3)
            assert net.epsilon_out < local.epsilon_out

    def test_fixed_contribution_variant(self):
        rep = acct.complete_sum_bound(0.5, 1e-7, 100, 10**4, 1e-3, 1e-3, fixed_contributions=True)
        assert rep.intermediates["N_v"] == 100.0
        assert rep.intermediates["num_cycles"] == 200.0
        assert rep.delta_out == pytest.approx(200 * 1e-7 + 1e-3)

    def test_eps_above_one_rejected(self):
        with pytest.raises(ValidityWindowError):
            acct.complete_sum_bound(1.2, 1e-7, 100, 1000, 1e-3, 1e-3)

    # n = 1000, delta_hat = 1e-3: the Chernoff chain has fewer than one cycle
    # up to T = 40, the fixed one (2T/n cycles) below T = 500
    @pytest.mark.parametrize("T, fixed, match", [
        (10, True, "got T=10, n=1000: 0.02 cycles"),
        (499, True, "got T=499, n=1000: 0.998 cycles"),
        (10, False, "got T=10, n=1000: 0.475.* cycles"),
        (40, False, "got T=40, n=1000: 0.99.* cycles"),
        (0, True, "got T=0, n=1000: 0.0 cycles"),
        (-5, True, "got T=-5, n=1000"),
        (math.nan, True, "got T=nan, n=1000: nan cycles"),
        (0, False, "T must be >= 1"),  # the Chernoff bound rejects T first
        (0.5, False, "T must be >= 1"),
    ])
    def test_fewer_than_one_cycle_rejected(self, T, fixed, match):
        with pytest.raises(ValueError, match=match):
            acct.complete_sum_bound(0.5, 1e-7, 1000, T, 1e-3, 1e-3, fixed_contributions=fixed)

    @pytest.mark.parametrize("T, fixed", [(41, False), (500, True)])
    def test_one_cycle_accepted(self, T, fixed):
        rep = acct.complete_sum_bound(0.5, 1e-7, 1000, T, 1e-3, 1e-3, fixed_contributions=fixed)
        assert 1 <= rep.intermediates["num_cycles"] < 1.01
        # one cycle costs at least its own eps_cycle
        assert rep.epsilon_out > rep.intermediates["eps_cycle"]


class TestLocalBaseline:
    def test_single_release_passthrough(self):
        rep = acct.local_baseline_sum(0.3, 1e-6, 1, 1e-3)
        assert rep.epsilon_out == 0.3 and rep.delta_out == 1e-6

    def test_chernoff_strictly_larger_than_fixed(self):
        n, T = 100, 10**4
        n_v = acct.chernoff_visit_bound(T, 1 / n, 1e-3)
        cher = acct.local_baseline_sum(0.5, 1e-7, n_v, 1e-3)
        fixed = acct.local_baseline_sum(0.5, 1e-7, T / n, 1e-3)
        assert n_v > T / n
        assert cher.epsilon_out > fixed.epsilon_out


class TestErlingssonShuffle:
    def test_golden(self):
        got = acct.erlingsson_shuffle(0.1, 10**4, 1e-3)
        assert got == pytest.approx(0.0315391306185416, rel=1e-12)

    def test_inverse_sqrt_n_scaling(self):
        assert acct.erlingsson_shuffle(0.1, 10**4, 1e-3) == pytest.approx(
            2 * acct.erlingsson_shuffle(0.1, 4 * 10**4, 1e-3), rel=1e-12
        )

    def test_linear_in_eps0(self):
        assert acct.erlingsson_shuffle(0.4, 10**4, 1e-3) == pytest.approx(
            4 * acct.erlingsson_shuffle(0.1, 10**4, 1e-3), rel=1e-12
        )

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            acct.erlingsson_shuffle(0.1, 50, 1e-3)
        with pytest.raises(ValidityWindowError):
            acct.erlingsson_shuffle(0.7, 10**4, 1e-3)
        assert acct.erlingsson_shuffle(0.7, 50, 1e-3, unchecked=True) > 0


class TestFeldmanShuffle:
    def test_golden(self):
        bound = acct.feldman_shuffle(1.0, 10**4, 1e-2)
        assert bound.exact == pytest.approx(0.1399362436442364, rel=1e-12)
        assert bound.simplified == pytest.approx(0.3426845562953143, rel=1e-12)

    def test_simplified_dominates_exact_on_grid(self):
        for delta in (1e-2, 1e-4, 1e-6):
            n_min = math.ceil(196 * math.log(4 / delta))
            for n in (n_min, 4 * n_min, 100 * n_min):
                for eps0 in (0.05, 0.3, 0.7, 1.0):
                    bound = acct.feldman_shuffle(eps0, n, delta)
                    assert bound.simplified >= bound.exact

    def test_vanishes_with_eps0(self):
        assert acct.feldman_shuffle(1e-9, 10**4, 1e-2).exact < 1e-8

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            acct.feldman_shuffle(5.0, 200, 1e-2)


class TestCompleteHistBound:
    def test_cycle_arms_cross_at_threshold(self):
        # arms are equal at m* = 196 ln(4/delta); the shuffle arm wins for
        # longer cycles, so the worst cycle m = n is shuffle-bounded
        # whenever n >= m*
        for delta in (1e-2, 1e-6):
            m_star = 196 * math.log(4 / delta)
            n = math.ceil(m_star) * 4
            eps = 0.5
            below = acct.cycle_bound_hist(eps, delta, n, int(m_star * 0.5))
            assert below == pytest.approx(3 * int(m_star * 0.5) * eps / (2 * n))
            at_n = acct.cycle_bound_hist(eps, delta, n, n)
            assert at_n == pytest.approx(21 * math.sqrt(math.log(4 / delta) * n) / n * eps)

    def test_eps_cycle_matches_worst_cycle(self):
        rep = acct.complete_hist_bound(0.5, 1e-6, 10**4, 10**6, 1e-3, 1e-3, 5)
        assert rep.intermediates["eps_cycle"] == pytest.approx(
            acct.cycle_bound_hist(0.5, 1e-6, 10**4, 10**4), rel=1e-12
        )

    def test_vanishes_with_eps(self):
        rep = acct.complete_hist_bound(1e-9, 1e-6, 10**4, 10**6, 1e-3, 1e-3, 5)
        assert rep.epsilon_out < 1e-5

    def test_golden(self):
        rep = acct.complete_hist_bound(0.5, 1e-6, 10**4, 10**6, 1e-3, 1e-3, 5)
        # frozen from a spelled-out advanced composition over 2T/n + sqrt(3T/n ln(1/delta_hat))
        # cycles at the shuffle arm 21 sqrt(ln(4/delta)/n) eps
        assert rep.epsilon_out == pytest.approx(74.69342171563059, rel=1e-12)
        gamma = rep.intermediates["gamma"]
        assert gamma == pytest.approx(5 / (math.e**0.5 + 4), rel=1e-12)
        assert rep.intermediates["expected_random_responses"] == pytest.approx(gamma * 10**6)

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            acct.complete_hist_bound(0.5, 1e-6, 100, 10**4, 1e-3, 1e-3, 5)
        rep = acct.complete_hist_bound(0.5, 1e-6, 100, 10**4, 1e-3, 1e-3, 5, unchecked=True)
        assert rep.unchecked
        # below n = 196 ln(4/delta) the worst cycle's cap is the subsample arm 3 eps / 2
        assert rep.intermediates["eps_cycle"] == 0.75

    @pytest.mark.parametrize("T, fixed, match", [
        (100, True, "got T=100, n=10000: 0.02 cycles"),
        (0, True, "got T=0, n=10000: 0.0 cycles"),
        (100, False, "got T=100, n=10000: 0.475.* cycles"),
        (-1, False, "T must be >= 1"),
    ])
    def test_fewer_than_one_cycle_rejected(self, T, fixed, match):
        with pytest.raises(ValueError, match=match):
            acct.complete_hist_bound(0.5, 1e-6, 10**4, T, 1e-3, 1e-3, 5, fixed_contributions=fixed)


class TestRdpCalculus:
    def test_compose(self):
        p = acct.RdpPoint(2.0, 0.1)
        assert acct.rdp_compose([p, p]).eps_rdp == pytest.approx(0.2)
        assert acct.rdp_compose([], alpha=3.0) == acct.RdpPoint(3.0, 0.0)
        assert acct.rdp_compose([p] * 7).eps_rdp == pytest.approx(0.7)

    def test_compose_rejects_mixed_alphas(self):
        with pytest.raises(ValueError):
            acct.rdp_compose([acct.RdpPoint(2.0, 0.1), acct.RdpPoint(3.0, 0.1)])
        with pytest.raises(ValueError):
            acct.rdp_compose([acct.RdpPoint(2.0, 0.1)], alpha=4.0)

    def test_rdp_to_dp_hand_value(self):
        assert acct.rdp_to_dp(acct.RdpPoint(2.0, 0.0), math.exp(-1)) == pytest.approx(1.0)

    def test_rdp_to_dp_golden(self):
        got = acct.rdp_to_dp(acct.RdpPoint(11.0, 0.5), 1e-5)
        assert got == pytest.approx(1.651292546497023, rel=1e-12)

    def test_rdp_to_dp_decreasing_in_alpha(self):
        vals = [acct.rdp_to_dp(acct.RdpPoint(a, 0.5), 1e-5) for a in (2, 4, 8, 16)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_compose_then_convert_identity(self):
        # exact for dyadic epsilons; 1e-12 otherwise (float summation order)
        p = acct.RdpPoint(4.0, 0.0625)
        lhs = acct.rdp_to_dp(acct.rdp_compose([p] * 16), 1e-6)
        rhs = acct.rdp_to_dp(acct.RdpPoint(4.0, 16 * 0.0625), 1e-6)
        assert lhs == rhs
        q = acct.RdpPoint(4.0, 0.05)
        lhs = acct.rdp_to_dp(acct.rdp_compose([q] * 12), 1e-6)
        rhs = acct.rdp_to_dp(acct.RdpPoint(4.0, 12 * 0.05), 1e-6)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPnsgdIteration:
    def test_last_step(self):
        p = acct.pnsgd_iteration_rdp(3.0, 1.5, 2.0, 1)
        assert p.eps_rdp == pytest.approx(3.0 * 2 * 1.5**2 / 2.0**2)

    def test_halves_with_double_steps(self):
        a = acct.pnsgd_iteration_rdp(3.0, 1.0, 2.0, 4).eps_rdp
        b = acct.pnsgd_iteration_rdp(3.0, 1.0, 2.0, 8).eps_rdp
        assert a == pytest.approx(2 * b)

    def test_zero_lipschitz(self):
        assert acct.pnsgd_iteration_rdp(3.0, 0.0, 2.0, 5).eps_rdp == 0.0


class TestSgdNetworkRdp:
    def test_plug_in(self):
        # E[1/t] under the pmf p (1 - p)^(t - 1): sum 2^-t / t = ln 2 at n = 2
        # and (1/2) ln 3 at n = 3
        alpha, L, sigma = 2.0, 1.0, 4.0
        for n, inverse_wait in ((2, math.log(2)), (3, math.log(3) / 2)):
            p = acct.sgd_network_rdp(alpha, 1.0, L, sigma, n)
            assert p.eps_rdp == pytest.approx(4 * alpha * L**2 * inverse_wait / sigma**2)

    def test_linear_in_contributions(self):
        a = acct.sgd_network_rdp(2.0, 3.0, 1.0, 5.0, 10).eps_rdp
        b = acct.sgd_network_rdp(2.0, 6.0, 1.0, 5.0, 10).eps_rdp
        assert b == pytest.approx(2 * a)

    def test_weak_convexity_gate(self):
        with pytest.raises(ValidityWindowError):
            acct.sgd_network_rdp(5.0, 1.0, 1.0, 1.0, 10)
        assert acct.sgd_network_rdp(5.0, 1.0, 1.0, 1.0, 10, unchecked=True).eps_rdp > 0

    def test_geometric_sum_inequality(self):
        # key derivation step: the waiting time t >= 1 has pmf p (1 - p)^(t - 1),
        # p = 1/n, so E[1/t] = ln(n) / (n - 1), above ln(n) / n
        for n in (2, 10, 100, 1000):
            p = 1 / n
            t = np.arange(1, 200_000)
            expectation = float(np.sum(p * (1 - p) ** (t - 1) / t))
            assert expectation == pytest.approx(math.log(n) / (n - 1), rel=1e-12)
            assert expectation > math.log(n) / n


class TestSgdClosedForm:
    def test_regime_switch_picks_max(self):
        # small T: the 2 ln(1/delta) floor binds; large T: the walk term
        lo = acct.sgd_closed_form_bound(0.5, 1e-6, 1000, 10**4, 1e-3)
        assert lo.intermediates["q"] == pytest.approx(2 * math.log(1e6))
        hi = acct.sgd_closed_form_bound(0.5, 1e-6, 1000, 10**7, 1e-3)
        n_u = hi.intermediates["N_u"]
        assert hi.intermediates["q"] == pytest.approx(2 * n_u * math.log(1000) / 1000)
        assert hi.intermediates["q"] > 2 * math.log(1e6)

    def test_golden(self):
        rep = acct.sgd_closed_form_bound(0.5, 1e-6, 1000, 10**6, 1e-3)
        assert rep.epsilon_out == pytest.approx(3.6872637361322647, rel=1e-12)
        assert rep.delta_out == pytest.approx(1e-6 + 1e-3)

    def test_monotone_in_T(self):
        vals = [
            acct.sgd_closed_form_bound(0.5, 1e-6, 1000, T, 1e-3).epsilon_out
            for T in (10**5, 10**6, 10**7, 10**8)
        ]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_window(self):
        with pytest.raises(ValidityWindowError):
            acct.sgd_closed_form_bound(1.5, 1e-6, 1000, 10**6, 1e-3)


class TestSigmaSearch:
    def test_returned_sigma_meets_target(self):
        sigma, alpha = acct.sigma_search(1.0, 1e-6, 20, 2000, 1.0)
        eps = acct.rdp_to_dp(acct.sgd_network_rdp(alpha, 20, 1.0, sigma, 2000), 1e-6)
        assert eps <= 1.0

    def test_grid_minimality(self):
        sigma, _ = acct.sigma_search(1.0, 1e-6, 20, 2000, 1.0)
        eps_below, _ = acct.network_sgd_eps(0.99 * sigma, 20, 2000, 1.0, 1e-6)
        assert eps_below > 1.0

    def test_network_needs_less_noise_than_local(self):
        from netdp.dpml import local_sgd_epsilon

        sigma_net, _ = acct.sigma_search(1.0, 1e-6, 10, 2000, 1.0)
        grid = 1e-2 * 1.01 ** np.arange(0, 2500)
        sigma_local = next(s for s in grid if local_sgd_epsilon(float(s), 10, 1e-6) <= 1.0)
        assert sigma_net < sigma_local

    def test_infeasible(self):
        with pytest.raises(InfeasibleError) as exc:
            acct.sigma_search(1e-9, 1e-6, 10**9, 2, 1.0)
        assert exc.value.diagnostics["ceiling"] == 1e6

    @pytest.mark.parametrize("L,n", [(0.0, 100), (-1.0, 100), (math.inf, 100), (math.nan, 100),
                                     (1.0, 1)])
    def test_rejects_degenerate_arguments(self, L, n):
        # L = 0 or inf would never leave the grid's growth loop; L < 0 or nan
        # would give an empty grid, and n = 1 a sigma sgd_network_rdp rejects
        with pytest.raises(ValueError):
            acct.sigma_search(1.0, 1e-6, 10, n, L)


def _linear_first_hit(eps_of, target, grid):
    for i, s in enumerate(grid):
        if eps_of(float(s)) <= target:
            return i
    raise InfeasibleError("no grid point meets the target")


def _network_grid(lo, hi, ratio):
    """sigma_search's grid: repeated multiplication from lo while <= hi."""
    grid, sigma = [], lo
    while sigma <= hi:
        grid.append(sigma)
        sigma *= ratio
    return grid


class TestGridBisect:
    @given(
        eps=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=300),
        target=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_matches_linear_scan(self, eps, target):
        eps = sorted(eps, reverse=True)
        grid = np.arange(len(eps), dtype=float)
        calls = []

        def eps_of(s):
            calls.append(s)
            return eps[int(s)]

        try:
            expected = _linear_first_hit(eps_of, target, grid)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                acct.grid_bisect(eps_of, target, grid)
            return
        calls.clear()
        assert acct.grid_bisect(eps_of, target, grid) == expected
        assert len(calls) <= 1 + math.ceil(math.log2(len(grid)))

    def test_first_point_feasible(self):
        assert acct.grid_bisect(lambda s: 0.0, 1.0, [1.0, 2.0, 3.0]) == 0

    def test_infeasible_reports_ceiling_eps(self):
        with pytest.raises(InfeasibleError) as exc:
            acct.grid_bisect(lambda s: 10.0 / s, 1.0, [1.0, 2.0, 4.0])
        assert exc.value.diagnostics == {"best_eps": 2.5, "at_sigma": 4.0}

    def test_empty_grid_infeasible(self):
        with pytest.raises(InfeasibleError):
            acct.grid_bisect(lambda s: 0.0, 1.0, [])

    def test_sigma_search_matches_linear_scan(self):
        for eps, delta, T_u, n in [(1.0, 1e-6, 10, 500), (1.0, 1e-6, 20, 2000),
                                   (0.3, 1e-8, 40, 100), (4.0, 1e-5, 5, 50)]:
            grid = _network_grid(1e-3, 1e6, 1.01)
            eps_of = lambda s: acct.network_sgd_eps(s, T_u, n, 1.0, delta)[0]
            i = _linear_first_hit(eps_of, eps, grid)
            assert acct.sigma_search(eps, delta, T_u, n, 1.0) == (
                grid[i], acct.network_sgd_eps(grid[i], T_u, n, 1.0, delta)[1])


def _loop_grid_bisect(eps_of, target, grid):
    """Reference: grid_bisect written as a hand-rolled index bisection."""
    if len(grid) == 0:
        raise InfeasibleError("empty grid")
    hi = len(grid) - 1
    if not eps_of(float(grid[hi])) <= target:
        raise InfeasibleError("no grid point meets the target")
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if eps_of(float(grid[mid])) <= target:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _loop_order(eps_at):
    """Reference: centralized_sgd_epsilon's order search as a hand-rolled bisection."""
    lo, hi = 2, acct.MAX_RDP_ORDER
    while lo < hi:
        mid = (lo + hi) // 2
        if eps_at(mid + 1) < eps_at(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _loop_centralized_eps(sigma, T, n, delta):
    """Reference: centralized_sgd_epsilon with the hand-rolled order search."""
    def eps_at(alpha):
        rdp = acct.sampled_gaussian_rdp(1.0 / n, sigma / dpml.GRAD_SENSITIVITY, float(alpha))
        return acct.rdp_to_dp(acct.RdpPoint(alpha, T * rdp), delta)
    return eps_at(_loop_order(eps_at))


class TestSearchProbes:
    """Both searches evaluate the same points, in the same order, as the
    hand-rolled bisections they replaced, so every calibrated sigma and
    order is unchanged; nan and non-monotone inputs included."""

    @given(eps=st.lists(st.one_of(st.floats(0.0, 10.0), st.just(math.nan)), min_size=1, max_size=80),
           target=st.floats(0.0, 10.0))
    def test_grid_bisect(self, eps, target):
        grid = np.arange(len(eps), dtype=float)
        outcomes = []
        for search in (acct.grid_bisect, _loop_grid_bisect):
            probes = []
            try:
                found = search(lambda s: probes.append(s) or eps[int(s)], target, grid)
            except InfeasibleError:
                found = None
            outcomes.append((found, probes))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("sigma,T,n,delta", [(0.05, 100, 10, 1e-6), (2.0, 2000, 200, 1e-6),
                                                 (30.0, 500, 50, 1e-8), (1e6, 2000, 200, 1e-6)])
    def test_order_search(self, monkeypatch, sigma, T, n, delta):
        probes = {dpml: [], acct: []}  # the search under test reads dpml's name, the loop acct's
        rdp = acct.sampled_gaussian_rdp
        for module in probes:
            monkeypatch.setattr(module, "sampled_gaussian_rdp",
                                lambda q, z, a, seen=probes[module]: seen.append(a) or rdp(q, z, a))
        assert dpml.centralized_sgd_epsilon(sigma, T, n, delta) == _loop_centralized_eps(sigma, T, n, delta)
        assert probes[dpml] == probes[acct]

    @given(seed=st.integers(0, 2**32 - 1), falling=st.integers(0, acct.MAX_RDP_ORDER),
           nan_share=st.sampled_from([0.0, 0.05, 0.5]))
    def test_order_search_on_any_eps(self, seed, falling, nan_share):
        # eps(alpha) read from a table that falls over its first orders, then
        # is random; nan and rising runs take the loop's branches
        rng = np.random.default_rng(seed)
        table = rng.uniform(0.0, 10.0, acct.MAX_RDP_ORDER + 1)
        table[:falling] = np.sort(table[:falling])[::-1]
        table[rng.random(table.size) < nan_share] = math.nan
        table = table.tolist()
        with pytest.MonkeyPatch.context() as mp:
            probes = []
            mp.setattr(dpml, "rdp_to_dp", lambda point, _: probes.append(point.alpha) or table[point.alpha])
            got = dpml.centralized_sgd_epsilon(1.0, 10, 10, 1e-6)
        expected = []
        order = _loop_order(lambda a: expected.append(a) or table[a])
        assert probes == expected + [order]
        assert got == table[order] or (math.isnan(got) and math.isnan(table[order]))

    @pytest.mark.parametrize("eps", [0.3, 1.0, 4.0])
    def test_calibrated_sigmas(self, eps):
        n, T, delta = 200, 2000, 1e-6
        grid = dpml._sigma_grid()
        for regime in (dpml.LOCAL, dpml.CENTRALIZED):
            config = dpml.TrainConfig(regime=regime, T=T, eta=0.1, budget=PrivacyBudget(eps, delta))
            cap = dpml.contribution_cap(T, n, config.cap_multiplier)
            eps_of = (lambda s: dpml.local_sgd_epsilon(s, cap, delta)) if regime == dpml.LOCAL else (
                lambda s: _loop_centralized_eps(s, T, n, delta))
            assert dpml.calibrate_regime(config, n) == grid[_loop_grid_bisect(eps_of, eps, grid)]
        grid = _network_grid(1e-3, 1e6, 1.01)
        eps_of = lambda s: acct.network_sgd_eps(s, 10, n, 1.0, delta)[0]
        sigma = grid[_loop_grid_bisect(eps_of, eps, grid)]
        alpha = acct.network_sgd_eps(sigma, 10, n, 1.0, delta)[1]
        assert acct.sigma_search(eps, delta, 10, n, 1.0) == (sigma, alpha)


class TestGridMonotonicity:
    """eps is non-increasing along each calibration grid, as grid_bisect assumes."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5000),
        T=st.integers(min_value=1, max_value=50_000),
        cap_multiplier=st.floats(min_value=0.05, max_value=5.0),
        delta=st.floats(min_value=1e-10, max_value=1e-2),
        data=st.data(),
    )
    def test_local(self, n, T, cap_multiplier, delta, data):
        grid = dpml._sigma_grid()
        i = data.draw(st.integers(min_value=0, max_value=len(grid) - 2))
        cap = dpml.contribution_cap(T, n, cap_multiplier)
        eps = [dpml.local_sgd_epsilon(float(s), cap, delta) for s in grid[i:i + 2]]
        assert eps[0] >= eps[1]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=1000),
        T=st.integers(min_value=1, max_value=5000),
        delta=st.floats(min_value=1e-10, max_value=1e-2),
        data=st.data(),
    )
    def test_centralized(self, n, T, delta, data):
        grid = dpml._sigma_grid()
        i = data.draw(st.integers(min_value=0, max_value=len(grid) - 2))
        eps = [dpml.centralized_sgd_epsilon(float(s), T, n, delta) for s in grid[i:i + 2]]
        assert eps[0] >= eps[1]

    @settings(max_examples=200, deadline=None)
    @given(
        T_u=st.integers(min_value=1, max_value=1000),
        n=st.integers(min_value=2, max_value=10_000),
        L=st.floats(min_value=0.1, max_value=10.0),
        delta=st.floats(min_value=1e-10, max_value=1e-2),
        data=st.data(),
    )
    def test_network(self, T_u, n, L, delta, data):
        grid = _network_grid(L * 1e-3, L * 1e6, 1.01)
        i = data.draw(st.integers(min_value=0, max_value=len(grid) - 2))
        eps = [acct.network_sgd_eps(s, T_u, n, L, delta)[0] for s in grid[i:i + 2]]
        assert eps[0] >= eps[1]


class TestSgdUtilityBound:
    def test_noiseless_limit(self):
        # eps -> inf leaves only the Lipschitz term in G
        got = acct.sgd_utility_bound(1.0, 1.0, 10, 1e9, 1e-6, 10**4)
        assert got == pytest.approx(2 * (2 + math.log(10**4)) / 100, rel=1e-6)

    def test_linear_in_diameter(self):
        a = acct.sgd_utility_bound(1.0, 1.0, 10, 1.0, 1e-6, 10**4)
        b = acct.sgd_utility_bound(2.0, 1.0, 10, 1.0, 1e-6, 10**4)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_golden(self):
        got = acct.sgd_utility_bound(1.0, 1.0, 10, 1.0, 1e-6, 10**4)
        assert got == pytest.approx(7.517090635189529, rel=1e-12)


class TestSampledGaussianRdp:
    @staticmethod
    def quadrature_oracle(q, z, alpha):
        # log-space numerical integration of both Renyi directions
        def log_ratio(x):
            return np.logaddexp(math.log1p(-q), math.log(q) + (2 * x - 1) / (2 * z * z))

        def integrand(power):
            def f(x):
                lg = -x * x / (2 * z * z) - 0.5 * math.log(2 * math.pi * z * z) + power * log_ratio(x)
                return math.exp(lg) if lg > -700 else 0.0
            return f

        i1 = quad(integrand(alpha), -np.inf, np.inf, limit=400)[0]
        i2 = quad(integrand(1 - alpha), -np.inf, np.inf, limit=400)[0]
        return max(math.log(i1), math.log(i2)) / (alpha - 1)

    @pytest.mark.parametrize("q,z,alpha", [(0.01, 1.0, 4), (0.05, 2.0, 8), (0.001, 0.7, 16)])
    def test_integer_orders_match_quadrature(self, q, z, alpha):
        got = acct.sampled_gaussian_rdp(q, z, alpha)
        assert got == pytest.approx(self.quadrature_oracle(q, z, alpha), rel=1e-9)

    def test_no_sampling_limit_is_gaussian(self):
        assert acct.sampled_gaussian_rdp(1.0, 2.0, 8.0) == pytest.approx(8 / (2 * 4))

    def test_zero_rate(self):
        assert acct.sampled_gaussian_rdp(0.0, 1.0, 2.0) == 0.0

    def test_fractional_order_rejected(self):
        with pytest.raises(ValueError, match="2.5"):
            acct.sampled_gaussian_rdp(0.01, 1.0, 2.5)

    def test_monotone_in_rate(self):
        vals = [acct.sampled_gaussian_rdp(q, 1.0, 8) for q in (0.001, 0.01, 0.1, 0.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("q,z,alpha", [(0.01, 1e-160, 8.0), (0.5, 1e-200, 2.0), (1.0, 1e-200, 2.0)])
    def test_vanishing_noise_is_infinite(self, q, z, alpha):
        # (i^2 - i) / (2 z^2) overflows at z = 1e-160 and 2 z^2 underflows at
        # z = 1e-200; the limit is +inf, reached without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert acct.sampled_gaussian_rdp(q, z, alpha) == math.inf

    def test_finite_just_above_the_overflow(self):
        # at z = 1e-150 the largest exponent 56 / 2e-300 is still finite
        assert math.isfinite(acct.sampled_gaussian_rdp(0.01, 1e-150, 8.0))


class TestRdpSpecialFunctionsAgainstScipy:
    """The numpy/math replacements of the RDP helpers, with scipy as the oracle."""

    @staticmethod
    def scipy_log_comb(a, k):
        return float(special.gammaln(a + 1) - special.gammaln(k + 1) - special.gammaln(a - k + 1))

    def test_log_comb_matches_gammaln(self):
        # integer rows as the integer-order sum uses them
        cases = [(a, k) for a in range(2, 65) for k in range(a + 1)]
        for a, k in cases:
            assert acct._log_comb(a, k) == pytest.approx(self.scipy_log_comb(a, k), rel=1e-13, abs=0)

    def test_log_a_int_matches_logsumexp_form(self):
        for q in (1 / 2000, 1 / 200, 0.01, 0.05, 0.1, 0.3):
            for z in (0.5, 0.8, 2.0, 5.0, 50.0):
                for alpha in range(2, 65):
                    terms = [self.scipy_log_comb(alpha, i) + i * math.log(q) + (alpha - i) * math.log1p(-q)
                             + (i * i - i) / (2.0 * z * z) for i in range(alpha + 1)]
                    want = float(special.logsumexp(terms))
                    assert acct._sgm_log_a_int(q, z, alpha) == pytest.approx(want, rel=0, abs=1e-12)


class TestCollusionAdjust:
    def test_identity(self):
        assert acct.collusion_adjust(100, 1) == 100

    def test_half(self):
        assert acct.collusion_adjust(10, 5) == 2

    def test_rejects_full_collusion(self):
        with pytest.raises(ValueError):
            acct.collusion_adjust(10, 10)

    def test_delegation_identity(self):
        eff = acct.collusion_adjust(1000, 2)
        a = acct.complete_sum_bound(0.5, 1e-7, int(eff), 10**4, 1e-3, 1e-3)
        b = acct.complete_sum_bound(0.5, 1e-7, 500, 10**4, 1e-3, 1e-3)
        assert a.epsilon_out == b.epsilon_out


class TestSpottedBound:
    def test_simple_arm_hand_value(self):
        # N_u = n/2, delta_tilde = 1/e: B = 1 + sqrt(3)
        eps = 0.37
        got = acct.spotted_bound(50.0, 100, eps, math.exp(-1), 1e-3, mode="simple")
        assert got == pytest.approx((1 + math.sqrt(3)) * eps, rel=1e-12)

    def test_sqrt_term_dominates_for_rare_spotting(self):
        eps, dt = 0.5, 1e-3
        got = acct.spotted_bound(1e-9, 100, eps, dt, 1e-3, mode="simple")
        expected = math.sqrt(6 * 1e-11 * math.log(1 / dt)) * eps
        assert got == pytest.approx(expected, rel=1e-3)

    def test_advanced_beats_simple_when_spotting_is_frequent(self):
        for eps in (0.01, 0.05, 0.1):
            for delta_prime in (1e-3, 1e-5):
                floor = 2 * math.log(1 / delta_prime)
                for scale in (1.0, 2.0, 5.0):
                    n = 1000
                    n_u = floor * scale * n / 2  # expected count 2 N_u / n = floor * scale
                    adv = acct.spotted_bound(n_u, n, eps, 1e-3, delta_prime, mode="advanced")
                    simple = acct.spotted_bound(n_u, n, eps, 1e-3, delta_prime, mode="simple")
                    assert adv <= simple

    @pytest.mark.parametrize("n_u,n,eps,delta_tilde,delta_prime", [
        (50.0, 100, 0.37, math.exp(-1), 1e-3),
        (5000.0, 1000, 0.1, 1e-3, 1e-5),
        (200.0, 10, 0.8, 1e-2, 1e-6),
    ])
    def test_advanced_arm_is_advanced_composition(self, n_u, n, eps, delta_tilde, delta_prime):
        # the B spotted releases compose with the Dwork-Rothblum-Vadhan rule
        rate = n_u / n
        B = 2 * rate + math.sqrt(6 * rate * math.log(1 / delta_tilde))
        got = acct.spotted_bound(n_u, n, eps, delta_tilde, delta_prime, mode="advanced")
        expected = acct.advanced_composition(eps, 0.0, B, delta_prime).epsilon
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            acct.spotted_bound(1.0, 10, 0.5, 0.1, 0.1, mode="hybrid")


class TestBoundReport:
    def test_pure_function_of_inputs(self):
        a = acct.complete_sum_bound(0.5, 1e-7, 100, 10**4, 1e-3, 1e-3)
        b = acct.complete_sum_bound(0.5, 1e-7, 100, 10**4, 1e-3, 1e-3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            acct.BoundReport("x", {}, -1.0, 0.0)
        with pytest.raises(ValueError):
            acct.BoundReport("x", {}, 1.0, 1.5)


def _complete_case(name, eps, delta, n):
    args = (eps, delta, n, 100 * n, 1e-3, 1e-3) + ((5,) if name == "complete_hist_bound" else ())
    return pytest.param(name, args, id=f"{name}-n{n}-eps{eps}")


class TestChainRecomposition:
    """Each report's (eps, delta), recomposed from its ``inputs`` and
    ``intermediates`` alone with the package's own advanced composition
    (``ring_sum_bound``: TestRingSumBound)."""

    @pytest.mark.parametrize("name,args", [
        ("ring_hist_bound", (0.1, 1e-3, 10**4, 1, 2, 1e-5)),
        ("ring_hist_bound", (0.4, 1e-3, 2000, 7, 4, 1e-6)),
        ("local_baseline_sum", (0.5, 1e-7, 2, 1e-3)),
        ("local_baseline_sum", (0.5, 1e-7, 131.25, 1e-3)),  # a fractional Chernoff N_v
    ])
    def test_composed_bounds_recompose_exactly(self, name, args):
        rep = getattr(acct, name)(*args)
        inputs, chain = rep.inputs, rep.intermediates
        releases = chain["num_releases"] if name == "local_baseline_sum" else inputs["K"]
        budget = acct.advanced_composition(inputs["eps"], inputs["delta"], releases, inputs["delta_prime"])
        assert (rep.epsilon_out, rep.delta_out) == (budget.epsilon, budget.delta)

    COMPLETE = (
        [_complete_case("complete_sum_bound", eps, 1e-7, n) for n in (20, 100, 1000) for eps in (0.5, 1.0)]
        + [_complete_case("complete_hist_bound", 0.5, 1e-6, n) for n in (10**4, 10**5)]
    )

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("name,args", COMPLETE)
    def test_complete_bounds_recompose_exactly(self, name, args, fixed):
        # advanced composition over the k = num_cycles cycles at eps_cycle,
        # plus delta_hat on the delta side
        rep = getattr(acct, name)(*args, fixed_contributions=fixed)
        inputs, chain = rep.inputs, rep.intermediates
        budget = acct.advanced_composition(chain["eps_cycle"], inputs["delta"], chain["num_cycles"],
                                           inputs["delta_prime"])
        assert (rep.epsilon_out, rep.delta_out) == (budget.epsilon, budget.delta + (inputs["delta_hat"] or 0.0))


class TestCornerInputs:
    """Every public closed form, on a grid of corner inputs (zero, negative,
    one, the ends of (0, 1), nan), returns a finite eps >= 0 or raises
    ``ValueError``/``ValidityWindowError``, and nothing else."""

    NAN = math.nan
    EPS = (-1.0, 0.0, 0.5, 2.0, NAN)
    DELTA = (0.0, 1e-6, 0.5, 1.0, NAN)
    COUNT = (-1, 0, 1, 2, 1000, NAN)
    GRIDS = {
        "advanced_composition": (EPS, DELTA, (0, 1, 2.5, NAN), DELTA),
        "advanced_composition_hetero": (([], [0.0], [-1.0, 0.5], [0.5, 2.0], [0.5, NAN]), DELTA),
        "simple_composition": (EPS, DELTA, (0, 1, 2.5, NAN)),
        "chernoff_visit_bound": (COUNT, (-1.0, 0.0, 0.5, 1.0, 2.0, NAN), DELTA),
        "subsample_amplify": (EPS, COUNT, COUNT),
        "cycle_bound_sum": (EPS, COUNT),
        "cycle_bound_hist": (EPS, DELTA, COUNT, COUNT),
        "erlingsson_shuffle": (EPS, COUNT, DELTA),
        "feldman_shuffle": (EPS, COUNT, DELTA),
        "ring_sum_bound": (EPS, DELTA, COUNT, DELTA, COUNT),
        "ring_hist_bound": (EPS, DELTA, COUNT, COUNT, (1, 5), DELTA),
        "complete_sum_bound": (EPS, DELTA, COUNT, COUNT, DELTA, DELTA),
        "complete_hist_bound": (EPS, DELTA, COUNT, COUNT, DELTA, DELTA, (1, 5)),
        "local_baseline_sum": (EPS, DELTA, (0, 1, 2.5, NAN), DELTA),
        "rdp_to_dp": ((1.5, 2.0, NAN), (0.0, 1.0, NAN), DELTA),
        "pnsgd_iteration_rdp": ((1.5, 2.0, NAN), (-1.0, 0.0, 1.0, NAN), (-1.0, 0.0, 1.0, NAN), COUNT),
        "sgd_network_rdp": ((1.5, 2.0, NAN), (-1.0, 0.0, 10.0, NAN), (-1.0, 0.0, 1.0, NAN),
                            (-1.0, 0.0, 1.0, 5.0, NAN), COUNT),
        "sgd_closed_form_bound": (EPS, DELTA, COUNT, COUNT, DELTA),
        "network_sgd_eps": ((-1.0, 0.0, 0.5, 100.0, NAN), (-1.0, 0.0, 10.0, NAN), COUNT,
                            (-1.0, 0.0, 1.0, NAN), DELTA),
        "sgd_utility_bound": ((0.0, 1.0, NAN), (0.0, 1.0, NAN), (0, 5), EPS, DELTA, COUNT),
        "sampled_gaussian_rdp": ((-1.0, 0.0, 0.5, 1.0, NAN), (-1.0, 0.0, 1.0, NAN), (1, 2, 2.5, NAN)),
        "collusion_adjust": (COUNT, COUNT),
        "spotted_bound": ((-1.0, 0.0, 10.0, NAN), COUNT, EPS, DELTA, DELTA, ("simple", "advanced")),
    }
    WINDOWED = {"cycle_bound_sum", "erlingsson_shuffle", "feldman_shuffle", "ring_hist_bound",
                "complete_sum_bound", "complete_hist_bound", "sgd_network_rdp", "sgd_closed_form_bound"}

    @staticmethod
    def epsilons(result) -> list[float]:
        if isinstance(result, acct.BoundReport):
            return [result.epsilon_out]
        if isinstance(result, PrivacyBudget):
            return [result.epsilon]
        if isinstance(result, acct.RdpPoint):
            return [result.eps_rdp]
        if isinstance(result, acct.FeldmanShuffleBound):
            return list(result)
        if isinstance(result, tuple):  # network_sgd_eps: (eps, alpha)
            return [result[0]]
        return [result]

    def test_every_public_closed_form_has_a_grid(self):
        searches = {"grid_bisect", "sigma_search", "rdp_compose"}
        callables = {name for name in acct.__all__
                     if callable(getattr(acct, name)) and not isinstance(getattr(acct, name), type)}
        assert callables - searches - {"FeldmanShuffleBound"} == set(self.GRIDS)

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_finite_nonnegative_or_value_error(self, name):
        fn = getattr(acct, name)
        if name == "rdp_to_dp":
            fn = lambda alpha, eps_rdp, delta: acct.rdp_to_dp(acct.RdpPoint(alpha, eps_rdp), delta)
        options = [{}, {"unchecked": True}] if name in self.WINDOWED else [{}]
        if name in ("complete_sum_bound", "complete_hist_bound"):
            options += [{"fixed_contributions": True, **o} for o in list(options)]
        for args in itertools.product(*self.GRIDS[name]):
            for kwargs in options:
                try:
                    result = fn(*args, **kwargs)
                except (ValueError, ValidityWindowError):
                    continue
                for eps in self.epsilons(result):
                    assert math.isfinite(eps) and eps >= 0, (name, args, kwargs, eps)

    @pytest.mark.parametrize("name,args,message", [
        ("advanced_composition", (0.5, 1e-7, 10, 2.0), r"delta_prime must be in \(0, 1\), got 2.0"),
        ("advanced_composition", (0.5, 1e-7, 10, 1.0), r"delta_prime must be in \(0, 1\), got 1.0"),
        ("advanced_composition", (0.5, 1e-7, 10, NAN), r"delta_prime must be in \(0, 1\), got nan"),
        ("advanced_composition", (0.5, -1.0, 10, 1e-3), r"delta must be in \[0, 1\), got -1.0"),
        ("advanced_composition", (0.5, 1.0, 10, 1e-3), r"delta must be in \[0, 1\), got 1.0"),
        ("advanced_composition", (0.5, NAN, 10, 1e-3), r"delta must be in \[0, 1\), got nan"),
        ("ring_sum_bound", (0.5, -1.0, 10, 1e-3, 20), r"delta must be in \[0, 1\), got -1.0"),
    ])
    def test_bad_delta_is_named(self, name, args, message):
        # the input itself, not a composed total or a math domain error
        with pytest.raises(ValueError, match=message):
            getattr(acct, name)(*args)

    @pytest.mark.parametrize("name", ["ring_hist_bound", "complete_sum_bound", "complete_hist_bound",
                                      "sgd_closed_form_bound"])
    def test_report_tag_is_the_window_decision(self, name):
        # a report computed with unchecked=True is tagged exactly where the
        # checked call raises ValidityWindowError, nan inputs included
        fn = getattr(acct, name)
        for args in itertools.product(*self.GRIDS[name]):
            try:
                report = fn(*args, unchecked=True)
            except ValueError:
                continue
            try:
                fn(*args)
                raised = False
            except ValidityWindowError:
                raised = True
            assert report.unchecked == raised, (name, args)
