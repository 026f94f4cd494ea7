"""Hazard series, certificates, Monte Carlo, and the product/sum duality."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, BoundViolated, BudgetExceeded, EmptyEvidence,
                      EosBoundFamily, FunctionAsm, InvalidWeight, OutOfRange,
                      ParityAsm, build_sfssm,
                      certify_nontight_upper_bound, certify_tight_lower_bound,
                      decide_tight, eos_hazard_enumerate, eos_hazard_fsa,
                      fit_geometric_tail, make_nontight_relu_rnn,
                      make_tight_softplus_rnn, monte_carlo_termination,
                      RnnAsm, product_sum_duality_check, rnn_log_norm_test, sfssm_as_asm,
                      suggests_tight, termination_cdf, termination_probability, trim)
from seqtight.verdicts import Certificate

from conftest import CountingAsm, StableRandomAsm, random_sfssm


def sure_stopper():
    return build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 1))}, [1.0], [1.0])


# -- hazard series: exhaustive enumeration -------------------------------------

def test_enumerate_softplus_is_harmonic():
    series = eos_hazard_enumerate(make_tight_softplus_rnn(), 4)
    assert series.values == pytest.approx((1 / 2, 1 / 3, 1 / 4, 1 / 5), abs=1e-12)
    assert series.hit_one_at is None


def test_enumerate_bigram_first_step_cannot_stop(fig1a):
    series = eos_hazard_enumerate(sfssm_as_asm(fig1a), 1)
    assert series.values == (0.0,)


def test_enumerate_parity_alternates():
    series = eos_hazard_enumerate(ParityAsm(), 4)
    assert series.values == pytest.approx((0.0, 0.1, 0.0, 0.1), abs=1e-15)
    # all 2^t prefixes of length t share one state, so a single pooled state stays live
    series = eos_hazard_enumerate(ParityAsm(), 40, budget=1)
    assert series.values == pytest.approx((0.0, 0.1) * 20, abs=1e-15)


def test_enumerate_budget_guard():
    asm = StableRandomAsm(Alphabet(("a", "b", "c")), seed=5)
    with pytest.raises(BudgetExceeded):
        eos_hazard_enumerate(asm, horizon=12, budget=50)


@pytest.mark.parametrize("conditional", [[math.nan, 0.6, 0.4], [-0.1, 0.7, 0.4]])
def test_invalid_symbol_weight_is_an_error_not_lost_mass(conditional):
    # the mass on a NaN or negative entry must not silently vanish, or the
    # walk would report "prefix mass exhausted" and certify sure stopping
    asm = FunctionAsm(Alphabet(("a", "b")), lambda prefix: conditional)
    with pytest.raises(InvalidWeight, match="step 1"):
        eos_hazard_enumerate(asm, horizon=5)
    with pytest.raises(InvalidWeight):
        certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=asm, horizon=5)


def nan_eos_asm():
    return FunctionAsm(Alphabet(("a",)), lambda prefix: [0.5, math.nan])


def test_nan_eos_fails_the_lower_bound_walk():
    # every comparison with NaN is False, so a plain `observed < want` check passes it
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=nan_eos_asm(), horizon=4)
    assert info.value.step == 1
    assert math.isnan(info.value.observed)


def test_nan_hazard_is_an_error_not_sure_stopping():
    # max(0, 1 - nan) is 0, so an unchecked NaN hazard reads as survival 0 and CDF 1
    with pytest.raises(InvalidWeight, match="step 1"):
        eos_hazard_enumerate(nan_eos_asm(), horizon=4)


def test_enumerate_sure_stop_truncates_and_flags():
    asm = sfssm_as_asm(sure_stopper())
    series = eos_hazard_enumerate(asm, 5)
    assert series.values == (1.0,)
    assert series.hit_one_at == 1
    assert series.support_exhausted_at == 2
    assert series.sure_termination


def test_enumerate_sure_stop_raise_mode():
    # exhaustion ends the series and is reported in it, never raised
    series = eos_hazard_enumerate(sfssm_as_asm(sure_stopper()), 5)
    assert series.support_exhausted_at == 2


# -- hazard series: forward recursion ---------------------------------------------

def test_fsa_series_matches_hand_recursion(fig1a):
    series = eos_hazard_fsa(fig1a, 3)
    assert series.values[0] == 0.0
    assert series.values[1] == pytest.approx(0.1, abs=1e-15)
    assert series.values[2] == pytest.approx(0.07 / 0.9, abs=1e-12)
    assert series.values[2] < series.values[1]


def test_fsa_series_partial_sums_unbounded_for_fixed_model(fig1b):
    # the hazard settles at 0.1, so partial sums grow without bound
    series = eos_hazard_fsa(fig1b, 200)
    assert series.values[1] == pytest.approx(0.1, abs=1e-12)
    assert series.values[150] == pytest.approx(0.1, abs=1e-9)
    assert series.partial_sums[-1] > 19.0


def test_fsa_sure_stop_sets_hit_one():
    series = eos_hazard_fsa(sure_stopper(), 3)
    assert series.hit_one_at == 1
    assert series.support_exhausted_at == 2


def test_fsa_raise_mode():
    # exhaustion ends the series and is reported in it, never raised
    assert eos_hazard_fsa(sure_stopper(), 3).support_exhausted_at == 2


@pytest.mark.parametrize("seed", range(25))
def test_engine_agreement_on_random_models(seed):
    rng = np.random.default_rng(5000 + seed)
    model = random_sfssm(rng)
    direct = eos_hazard_fsa(model, 8)
    enumerated = eos_hazard_enumerate(sfssm_as_asm(model), 8)
    shared = min(direct.horizon, enumerated.horizon)
    assert direct.values[:shared] == pytest.approx(enumerated.values[:shared], abs=1e-9)
    assert direct.hit_one_at == enumerated.hit_one_at


# -- termination CDF ------------------------------------------------------------------

def test_cdf_telescopes_for_softplus():
    series = eos_hazard_enumerate(make_tight_softplus_rnn(), 9)
    cdf = termination_cdf(series)
    for horizon, value in enumerate(cdf, start=1):
        assert value == pytest.approx(1.0 - 1.0 / (horizon + 1.0), abs=1e-12)
    assert cdf[-1] == pytest.approx(0.9, abs=1e-12)


def test_cdf_matches_independent_stopping_series_for_relu():
    # independent oracle: accumulate the stopping mass of the closed-form
    # hazard 1/(e^(t-1)+1) directly, then compare engine output against it
    oracle_total = 0.0
    survive = 1.0
    for t in range(1, 51):
        hazard = 1.0 / (math.exp(t - 1.0) + 1.0) if t < 40 else math.exp(-(t - 1.0))
        oracle_total += survive * hazard
        survive *= 1.0 - hazard
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 50)
    cdf = termination_cdf(series)
    assert cdf[-1] == pytest.approx(oracle_total, abs=1e-12)
    assert cdf[-1] == pytest.approx(0.702, abs=5e-4)
    assert 1.0 - series.survival[-1] == pytest.approx(oracle_total, abs=1e-12)


def test_cdf_of_bigram_adapter_reaches_leak_limit(fig1a):
    series = eos_hazard_enumerate(sfssm_as_asm(fig1a), 60)
    cdf = termination_cdf(series)
    assert cdf[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_cdf_monotone_surviving_horizons(fig1b):
    cdf = termination_cdf(eos_hazard_fsa(fig1b, 120))
    assert all(b >= a - 1e-15 for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] <= 1.0


@pytest.mark.parametrize("seed", range(15))
def test_cdf_converges_to_matrix_formula(seed):
    # models with modest spectral decay reach their limit well before T=500
    rng = np.random.default_rng(6000 + seed)
    from seqtight import spectral_radius_estimate
    while True:
        model = random_sfssm(rng)
        sub = trim(model)
        if spectral_radius_estimate(sub.transition_sum).estimate <= 0.95:
            break
    exact = termination_probability(sub)
    cdf = termination_cdf(eos_hazard_fsa(model, 500))
    assert cdf[-1] == pytest.approx(exact, abs=1e-6)


@pytest.mark.parametrize("seed", range(15))
def test_series_evidence_matches_exact_decision(seed):
    # numeric operationalization: sure stop, or sums past 20 with survival
    # below 1e-6, exactly when the matrix formula says termination is 1
    rng = np.random.default_rng(6500 + seed)
    from seqtight import spectral_radius_estimate
    while True:
        model = random_sfssm(rng)
        sub = trim(model)
        if spectral_radius_estimate(sub.transition_sum).estimate <= 0.95:
            break
    series = eos_hazard_fsa(model, 1000)
    assert suggests_tight(series) == decide_tight(model).is_tight


# -- lower-bound certificates -----------------------------------------------------------

def test_constant_bound_certifies_tightness():
    verdict = certify_tight_lower_bound(EosBoundFamily.constant(0.1))
    assert verdict.is_tight
    assert verdict.certificate is Certificate.UNIFORM_EOS_BOUND


def test_harmonic_bound_checks_and_certifies_softplus():
    verdict = certify_tight_lower_bound(EosBoundFamily.harmonic(1.0, 1.0),
                                        asm=make_tight_softplus_rnn(), horizon=40)
    assert verdict.is_tight
    assert verdict.certificate is Certificate.DIVERGENT_BOUND_FAMILY


def test_log_harmonic_bound_certifies():
    verdict = certify_tight_lower_bound(EosBoundFamily.log_harmonic(0.5, 1.0))
    assert verdict.is_tight


def test_geometric_lower_bound_is_inconclusive():
    verdict = certify_tight_lower_bound(EosBoundFamily.geometric(1.0, 1.0 / math.e),
                                        asm=make_nontight_relu_rnn(), horizon=30)
    assert verdict.is_inconclusive


def test_table_lower_bound_is_inconclusive():
    verdict = certify_tight_lower_bound(EosBoundFamily.table([0.4, 0.2]),
                                        asm=make_tight_softplus_rnn(), horizon=10)
    assert verdict.is_inconclusive


def test_lower_bound_violation_is_reported():
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.constant(0.4),
                                  asm=make_tight_softplus_rnn(), horizon=10)
    assert info.value.step == 2  # hazard at step 2 is 1/3 < 0.4
    assert info.value.observed == pytest.approx(1 / 3, abs=1e-12)
    assert info.value.prefix == ("a",)


def test_lower_bound_violation_witness_is_a_real_prefix():
    asm = ParityAsm()
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.table([0.0, 0.05, 0.0, 0.2]),
                                  asm=asm, horizon=4)
    assert info.value.step == 4  # eos probability 0.1 < 0.2 after three symbols
    assert len(info.value.prefix) == 3
    assert asm.conditional(info.value.prefix)[-1] == info.value.observed


def test_lower_bound_empirical_check_pools_states(fig1b):
    # 200 steps would mean ~200 live prefixes, over the budget of 100; the
    # walk pools prefixes sharing a forward state, so it stays tiny
    bound = EosBoundFamily.table([0.0] + [0.05] * 198)
    verdict = certify_tight_lower_bound(bound, asm=sfssm_as_asm(fig1b),
                                        horizon=200, budget=100)
    assert verdict.is_inconclusive


def test_enumeration_records_the_smallest_live_eos_probability():
    series = eos_hazard_enumerate(ParityAsm(0.1), 4)
    assert series.min_eos == pytest.approx((0.0, 0.1, 0.0, 0.1), abs=1e-15)
    assert eos_hazard_fsa(sure_stopper(), 2).min_eos is None


def test_lower_bound_check_reads_the_enumerated_series():
    asm = CountingAsm(make_tight_softplus_rnn())
    series = eos_hazard_enumerate(asm, 50)
    asm.calls = {"step": 0, "state_conditional": 0}
    verdict = certify_tight_lower_bound(EosBoundFamily.harmonic(1, 1), asm=asm,
                                        horizon=50, series=series)
    assert verdict.is_tight
    assert asm.calls == {"step": 0, "state_conditional": 0}


@pytest.mark.parametrize("asm, bound", [
    (make_tight_softplus_rnn(), EosBoundFamily.constant(0.4)),
    (ParityAsm(), EosBoundFamily.table([0.0, 0.05, 0.0, 0.2])),
    (ParityAsm(), EosBoundFamily.constant(0.05)),
])
def test_lower_bound_violation_is_the_same_with_a_series(asm, bound):
    # a failing minimum reruns the walk, which names the same step and prefix
    with pytest.raises(BoundViolated) as walked:
        certify_tight_lower_bound(bound, asm=asm, horizon=10)
    with pytest.raises(BoundViolated) as read:
        certify_tight_lower_bound(bound, asm=asm, horizon=10,
                                  series=eos_hazard_enumerate(asm, 10))
    assert str(read.value) == str(walked.value)


def test_lower_bound_witness_keeps_the_parent_of_a_revisited_key():
    # y is live at step 2 and reached again from x before y itself is
    # stepped; z's witness must extend y's own prefix ('b',), not ('a', 'a')
    z = np.zeros((4, 4))
    ta, tb, tc = z.copy(), z.copy(), z.copy()
    ta[0, 1], tb[0, 2], ta[1, 2], tc[2, 3], tc[3, 3] = 0.5, 0.5, 1.0, 0.5, 0.8
    model = build_sfssm(Alphabet(("a", "b", "c")), {"a": ta, "b": tb, "c": tc},
                        [1, 0, 0, 0], [0, 0, 0.5, 0.2], names=("BOS", "x", "y", "z"))
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.table([0.0, 0.0, 0.3]),
                                  asm=sfssm_as_asm(model), horizon=3)
    assert (info.value.step, info.value.prefix) == (3, ("b", "c"))


def test_lower_bound_walk_memory_stays_flat_as_horizon_grows():
    # softplus states never repeat: a walk cache that kept the root or any
    # dead ancestor would grow with the horizon
    bound = EosBoundFamily.harmonic(1, 1)
    certify_tight_lower_bound(bound, asm=make_tight_softplus_rnn(), horizon=5)  # warm caches
    peaks = []
    for horizon in (2_000, 20_000):
        tracemalloc.start()
        certify_tight_lower_bound(bound, asm=make_tight_softplus_rnn(), horizon=horizon)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


# -- upper-bound certificates -------------------------------------------------------------

def test_geometric_upper_bound_certifies_leak():
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 50)
    bound = EosBoundFamily.geometric(math.e, 1.0 / math.e)  # e * e^-t = e^-(t-1)
    verdict = certify_nontight_upper_bound(series, bound)
    assert verdict.is_non_tight
    assert verdict.leaked_mass == pytest.approx(1.0 - 0.7020135572667846, abs=1e-6)


def test_upper_bound_violation_detected():
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 20)
    with pytest.raises(BoundViolated):
        certify_nontight_upper_bound(series, EosBoundFamily.geometric(0.5, 0.25))


def test_non_geometric_upper_bound_inconclusive():
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 20)
    verdict = certify_nontight_upper_bound(series, EosBoundFamily.harmonic(1.0, 1.0))
    assert verdict.is_inconclusive


def test_upper_bound_with_huge_tail_inconclusive():
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 2)
    bound = EosBoundFamily.geometric(1.0, 0.999)
    verdict = certify_nontight_upper_bound(series, bound)
    assert verdict.is_inconclusive


# -- bound family validation ----------------------------------------------------------------

def test_bound_families_validate_ranges():
    with pytest.raises(OutOfRange):
        EosBoundFamily.constant(1.5)
    with pytest.raises(OutOfRange):
        EosBoundFamily.harmonic(3.0, 0.5)  # peak 2 > 1
    with pytest.raises(OutOfRange):
        EosBoundFamily.geometric(1.0, 1.0)
    with pytest.raises(OutOfRange):
        EosBoundFamily.log_harmonic(1.0, 0.0)
    with pytest.raises(OutOfRange):
        EosBoundFamily.table([0.5, -0.1])


def test_bound_family_values_and_divergence():
    assert EosBoundFamily.harmonic(1.0, 1.0).value(3) == pytest.approx(0.25)
    assert EosBoundFamily.geometric(0.5, 0.5).value(2) == pytest.approx(0.125)
    assert EosBoundFamily.table([0.3, 0.2]).value(5) == 0.0
    assert EosBoundFamily.constant(0.1).diverges is True
    assert EosBoundFamily.constant(0.0).diverges is False
    assert EosBoundFamily.harmonic(1.0, 1.0).diverges is True
    assert EosBoundFamily.log_harmonic(0.5, 1.0).diverges is True
    assert EosBoundFamily.geometric(0.5, 0.5).diverges is False
    assert EosBoundFamily.table([0.5]).diverges is None


# -- hidden-norm criterion ---------------------------------------------------------------------

def test_log_norm_bound_accepts_logarithmic_growth():
    norms = [math.log(t) for t in range(1, 80)]
    verdict = rnn_log_norm_test(1.0, norms)
    assert verdict.is_tight
    assert verdict.certificate is Certificate.LOG_NORM_BOUND


def test_log_norm_bound_rejects_linear_growth():
    norms = [float(t) for t in range(1, 80)]
    verdict = rnn_log_norm_test(1.0, norms)
    assert verdict.is_inconclusive


def test_log_norm_bound_accepts_bounded_norms_past_threshold():
    norms = [1.5] * 100
    verdict = rnn_log_norm_test(1.0, norms, threshold_index=5)
    assert verdict.is_tight


def test_log_norm_bound_needs_evidence():
    with pytest.raises(EmptyEvidence):
        rnn_log_norm_test(1.0, [])
    with pytest.raises(EmptyEvidence):
        rnn_log_norm_test(1.0, [0.1, 0.2], threshold_index=10)


def test_log_norm_uses_output_gap_of_relu_instance():
    m = make_nontight_relu_rnn()
    norms = [float(t) for t in range(1, 30)]  # hidden norm at step t is t - 1... grows linearly
    assert rnn_log_norm_test(m.output_gap(), norms).is_inconclusive


# -- Monte Carlo --------------------------------------------------------------------------------

def test_monte_carlo_sure_stop_is_exact():
    estimate = monte_carlo_termination(sfssm_as_asm(sure_stopper()), 5000, max_len=10, seed=3)
    assert estimate.terminated_fraction == 1.0
    assert estimate.truncated == 0
    assert estimate.mean_length_of_terminated == 0.0


def test_monte_carlo_is_deterministic_per_seed(fig1a):
    asm = sfssm_as_asm(fig1a)
    first = monte_carlo_termination(asm, 3000, max_len=200, seed=11)
    second = monte_carlo_termination(asm, 3000, max_len=200, seed=11)
    other = monte_carlo_termination(asm, 3000, max_len=200, seed=12)
    assert first == second
    assert first != other


def test_monte_carlo_matches_exact_leak(fig1a):
    estimate = monte_carlo_termination(sfssm_as_asm(fig1a), 20_000, max_len=500, seed=7)
    assert abs(estimate.terminated_fraction - 1.0 / 3.0) <= 3 * estimate.confidence_halfwidth
    assert estimate.truncated_fraction == pytest.approx(2.0 / 3.0, abs=0.02)


def test_monte_carlo_softplus_cdf_at_truncation():
    estimate = monte_carlo_termination(make_tight_softplus_rnn(), 20_000, max_len=1000, seed=5)
    assert abs(estimate.terminated_fraction - (1.0 - 1.0 / 1001.0)) <= 3 * estimate.confidence_halfwidth


def test_monte_carlo_length_accounting(fig1b):
    estimate = monte_carlo_termination(sfssm_as_asm(fig1b), 2000, max_len=2000, seed=1)
    assert estimate.terminated + estimate.truncated == estimate.samples
    assert sum(c for _, c in estimate.length_counts) == estimate.terminated
    assert estimate.length_quantile(0.5) >= 1  # strings need at least one symbol


def test_monte_carlo_memory_stays_flat_as_max_len_grows():
    # tanh hidden states that never pool and a tiny EOS probability keep every
    # sample live to max_len, so no live group may hold its ancestor chain
    turn = np.array([[math.cos(0.9), -math.sin(0.9)], [math.sin(0.9), math.cos(0.9)]])
    asm = RnnAsm(alphabet=Alphabet(("x", "y")),
                 input_embedding=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                 output_embedding=[[4.0, 4.0], [4.0, 4.0], [-4.0, -4.0]],
                 input_weights=np.eye(2), recurrent_weights=2.0 * turn,
                 bias=[1.5, 1.5], activation="tanh", initial_hidden=[1.0, 1.0])
    monte_carlo_termination(asm, 10, max_len=5, seed=0)  # warm caches outside the trace
    peaks = []
    for max_len in (25, 200):
        tracemalloc.start()
        estimate = monte_carlo_termination(asm, 100, max_len=max_len, seed=0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert estimate.truncated == 100
    assert peaks[1] < 2 * peaks[0]


def test_monte_carlo_steps_each_state_key_once(fig1a):
    # two thirds of the runs stay in the absorbing state b until max_len; its
    # conditional and successor are computed once, not once per step
    counts = []
    for max_len in (1_000, 10_000):
        asm = CountingAsm(sfssm_as_asm(fig1a))
        estimate = monte_carlo_termination(asm, 1000, max_len=max_len, seed=0)
        assert estimate.truncated > 0
        counts.append(asm.calls)
    assert counts[0] == counts[1] == {"step": 4, "state_conditional": 3}


def test_walks_leave_nothing_for_the_cycle_collector(fig1a):
    # fig1a's absorbing b is its own successor; a walk that linked to it
    # strongly would leave a reference cycle behind every walk
    asm = sfssm_as_asm(fig1a)

    def walks():
        monte_carlo_termination(asm, 1000, max_len=50, seed=0)
        eos_hazard_enumerate(asm, 50)
        certify_tight_lower_bound(EosBoundFamily.constant(0.0), asm=asm, horizon=50)
    walks()  # warm caches outside the check
    gc.collect()
    gc.disable()
    try:
        walks()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- product/sum duality -----------------------------------------------------------------------

def test_duality_harmonic_sequence():
    report = product_sum_duality_check([1.0 / (n + 1.0) for n in range(1, 10_001)])
    assert report.partial_product == pytest.approx(1.0 / 10_001.0, abs=1e-9)
    assert report.partial_sum == pytest.approx(8.787706026045383, abs=1e-9)
    assert report.partial_sum > 8.7  # keeps growing without bound


def test_duality_geometric_sequence():
    report = product_sum_duality_check([2.0 ** -n for n in range(1, 10_001)])
    assert report.partial_product == pytest.approx(0.2887880950866024, abs=1e-12)
    assert report.partial_product > 0.28
    assert report.partial_sum <= 1.0 + 1e-9


def test_duality_zero_sequence():
    report = product_sum_duality_check([0.0] * 50)
    assert report.partial_product == 1.0
    assert report.partial_sum == 0.0


def test_duality_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        product_sum_duality_check([0.5, 1.0])
    with pytest.raises(OutOfRange):
        product_sum_duality_check([-0.1])


@given(hst.lists(hst.floats(min_value=0.0, max_value=0.9), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_duality_product_bounded_by_exp_of_sum(p_seq):
    # 1 - p <= exp(-p) termwise, so the product is at most exp(-sum)
    report = product_sum_duality_check(p_seq)
    assert report.partial_product <= math.exp(-report.partial_sum) + 1e-12
    assert 0.0 <= report.partial_product <= 1.0


# -- heuristics ----------------------------------------------------------------------------------

def test_fit_geometric_tail_on_relu_series():
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 30)
    fit = fit_geometric_tail(series)
    assert fit is not None
    assert fit.ratio == pytest.approx(1.0 / math.e, rel=1e-3)
    for i, v in enumerate(series.values):
        assert v <= fit.value(i + 1) + 1e-12


def test_fit_geometric_tail_rejects_harmonic_series():
    series = eos_hazard_enumerate(make_tight_softplus_rnn(), 30)
    assert fit_geometric_tail(series) is None


def test_suggests_tight_for_sure_stop():
    assert suggests_tight(eos_hazard_fsa(sure_stopper(), 3)) is True


def test_suggests_tight_negative_for_leaky_model(fig1a):
    assert suggests_tight(eos_hazard_fsa(fig1a, 1000)) is False


def test_series_ops_validate_arguments(fig1a):
    with pytest.raises(ValueError):
        eos_hazard_fsa(fig1a, 0)
    with pytest.raises(ValueError):
        eos_hazard_enumerate(ParityAsm(), 0)
