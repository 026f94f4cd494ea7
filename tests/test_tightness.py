"""Hazard series, certificates, Monte Carlo, and the product/sum duality."""

import gc
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, Asm, BoundViolated, BudgetExceeded,
                      EosBoundFamily, FunctionAsm, InvalidWeight, NotADistribution, OutOfRange,
                      ParityAsm, analyze, build_sfssm,
                      certify_nontight_upper_bound, certify_tight_lower_bound,
                      decide_tight, eos_hazard_enumerate, eos_hazard_fsa,
                      fit_geometric_tail, make_nontight_relu_rnn,
                      make_tight_softplus_rnn, monte_carlo_termination,
                      RnnAsm, SfssmAsm, product_sum_duality_check,
                      suggests_tight, TerminationEstimate, termination_cdf,
                      termination_probability, trim, validate_conditional)
from seqtight import tightness
from seqtight.modelfile import BUILTINS, load_model
from seqtight.core import as_prob
from seqtight.tightness import _series_from_values
from seqtight.verdicts import Certificate

from conftest import CountingAsm, CountingRnn, StableRandomAsm, random_sfssm, seeded_tanh_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def same_series(a, b) -> bool:
    """Whether two hazard series hold equal fields, arrays element by element."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def sure_stopper():
    return build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 1))}, [1.0], [1.0])


def test_series_accumulators_match_running_loop():
    rng = np.random.default_rng(11)
    for n in (0, 1, 7, 3000):
        values = (rng.random(n) ** 3).tolist()
        series = _series_from_values(values, None)
        running_sum, running_prod, sums, survival = 0.0, 1.0, [], []
        for v in values:
            running_sum += v
            running_prod *= max(0.0, 1.0 - v)
            sums.append(running_sum)
            survival.append(running_prod)
        assert series.partial_sums.tolist() == sums
        assert series.survival.tolist() == survival


def test_series_fields_are_read_only_float_arrays(fig1a):
    enumerated = eos_hazard_enumerate(SfssmAsm(fig1a), 5)
    built = tightness.EosHazardSeries(values=[0.5], partial_sums=(0.5,), survival=[0.5])
    for series in (enumerated, eos_hazard_fsa(fig1a, 5), built):
        arrays = [series.values, series.partial_sums, series.survival, termination_cdf(series)]
        for array in arrays + [series.min_eos] * (series is enumerated):
            assert array.dtype == np.float64 and array.ndim == 1
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.25
    assert built.min_eos is None


@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_a_hazard_outside_the_unit_interval_is_an_invalid_weight(bad):
    with pytest.raises(InvalidWeight, match=re.escape(f"eos hazard {bad!r} at step 2 is outside [0, 1]")):
        _series_from_values([0.5, bad, 0.5], None)


# -- hazard series: exhaustive enumeration -------------------------------------

def test_enumerate_softplus_is_harmonic():
    series = eos_hazard_enumerate(make_tight_softplus_rnn(), 4)
    assert series.values == pytest.approx((1 / 2, 1 / 3, 1 / 4, 1 / 5), abs=1e-12)
    assert series.hit_one_at is None


def test_enumerate_bigram_first_step_cannot_stop(fig1a):
    series = eos_hazard_enumerate(SfssmAsm(fig1a), 1)
    assert series.values.tolist() == [0.0]


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
    with pytest.raises(BudgetExceeded) as info:  # a one-symbol chain's single state counts too
        eos_hazard_enumerate(make_tight_softplus_rnn(), horizon=5, budget=0)
    assert (info.value.step, info.value.frontier) == (2, 1)


@pytest.mark.parametrize("conditional", [[math.nan, 0.6, 0.4], [-0.1, 0.7, 0.4]])
def test_invalid_symbol_weight_is_an_error_not_lost_mass(conditional):
    # the mass on a NaN or negative entry must not silently vanish, or the
    # walk would report "prefix mass exhausted" and certify sure stopping
    asm = FunctionAsm(Alphabet(("a", "b")), lambda prefix: conditional)
    # the entry prints as a float, not as np.float64(nan)
    message = r"at step 1 is not a distribution: symbol 'a' has (nan|-0\.1)$"
    with pytest.raises(InvalidWeight, match=message):
        eos_hazard_enumerate(asm, horizon=5)
    with pytest.raises(InvalidWeight, match=message):
        certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=asm, horizon=5)


def test_a_conditional_with_no_positive_entry_is_an_error_not_sure_stopping():
    # it sends no mass anywhere, which would read as exhausted prefix mass
    asm = FunctionAsm(Alphabet(("a",)), lambda prefix: [0.0, 0.0])
    with pytest.raises(InvalidWeight, match="at step 1 is not a distribution: it sums to 0.0$"):
        analyze(asm, horizon=5, samples=0, max_len=5, seed=0)


def nan_eos_asm():
    return FunctionAsm(Alphabet(("a",)), lambda prefix: [0.5, math.nan])


def test_nan_eos_fails_the_lower_bound_walk():
    # every comparison with NaN is False, so a plain `observed < want` check
    # would pass it; a NaN EOS makes the row no distribution, not a low bound
    with pytest.raises(InvalidWeight, match="at step 1 is not a distribution: symbol 'EOS' has nan"):
        certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=nan_eos_asm(), horizon=4)


def test_nan_eos_behind_a_passing_state_fails_the_lower_bound_walk():
    # the NaN row comes second in its step's frontier, after a valid one
    conditionals = {(): [0.4, 0.4, 0.2], ("a",): [0.4, 0.3, 0.3], ("b",): [0.5, 0.5, math.nan]}
    asm = FunctionAsm(Alphabet(("a", "b")), lambda prefix: conditionals[prefix])
    with pytest.raises(InvalidWeight, match="at step 2 is not a distribution: symbol 'EOS' has nan"):
        certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=asm, horizon=2)


def test_nan_hazard_is_an_error_not_sure_stopping():
    # max(0, 1 - nan) is 0, so an unchecked NaN hazard reads as survival 0 and CDF 1
    with pytest.raises(InvalidWeight, match="step 1"):
        eos_hazard_enumerate(nan_eos_asm(), horizon=4)


def test_enumerate_sure_stop_truncates_and_flags():
    asm = SfssmAsm(sure_stopper())
    series = eos_hazard_enumerate(asm, 5)
    assert series.values.tolist() == [1.0]
    assert series.hit_one_at == 1
    assert series.support_exhausted_at == 2
    assert series.sure_termination


def test_enumerate_sure_stop_raise_mode():
    # exhaustion ends the series and is reported in it, never raised
    series = eos_hazard_enumerate(SfssmAsm(sure_stopper()), 5)
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
    enumerated = eos_hazard_enumerate(SfssmAsm(model), 8)
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
    series = eos_hazard_enumerate(SfssmAsm(fig1a), 60)
    cdf = termination_cdf(series)
    assert cdf[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_cdf_clamps_and_rejects_like_as_prob():
    survival = (1.0, 0.75, 1.0 + 5e-13, -5e-13, 0.1 + 0.2)
    series = tightness.EosHazardSeries(values=(), partial_sums=(), survival=survival)
    assert termination_cdf(series).tolist() == [as_prob(1.0 - s) for s in survival]
    bad = replace(series, survival=(0.5, 1.5, math.nan, -1.0))
    with pytest.raises(OutOfRange) as info:
        termination_cdf(bad)
    with pytest.raises(OutOfRange) as expected:
        as_prob(1.0 - 1.5)
    assert str(info.value) == str(expected.value)
    with pytest.raises(OutOfRange, match="nan"):
        termination_cdf(replace(series, survival=(0.5, math.nan)))


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
    verdict = certify_tight_lower_bound(bound, asm=SfssmAsm(fig1b),
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
                                  asm=SfssmAsm(model), horizon=3)
    assert (info.value.step, info.value.prefix) == (3, ("b", "c"))


@pytest.mark.parametrize("read_series", [False, True])
def test_lower_bound_slack_is_relative(read_series):
    # relu's eos probability 1/(e^(t-1)+1) falls below 1e-13 at step 31 and
    # reaches about 1e-26 by step 60; an absolute 1e-12 slack passed them all
    asm = make_nontight_relu_rnn()
    series = eos_hazard_enumerate(asm, 60) if read_series else None
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.constant(1e-13), asm=asm, horizon=60,
                                  series=series)
    assert info.value.step == 31
    assert info.value.observed < 1e-13


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


# -- batched frontier steps -----------------------------------------------------------

_WEIGHT = hst.floats(-3.0, 3.0)


@hst.composite
def small_rnns(draw) -> RnnAsm:
    d, k = draw(hst.integers(1, 4)), draw(hst.integers(1, 3))

    def matrix(*shape):
        return np.array(draw(hst.lists(_WEIGHT, min_size=math.prod(shape),
                                       max_size=math.prod(shape)))).reshape(shape)
    return RnnAsm(alphabet=Alphabet(("a", "b", "c")[:k]),
                  input_embedding=matrix(k + 1, d), output_embedding=matrix(k + 1, d),
                  input_weights=matrix(d, d), recurrent_weights=matrix(d, d), bias=matrix(d),
                  activation=draw(hst.sampled_from(["relu", "softplus", "tanh", "sigmoid"])),
                  initial_hidden=matrix(d))


def walk_outcome(asm, horizon, budget, floor):
    """The enumerated series and the lower-bound check, or how either failed."""
    try:
        series = eos_hazard_enumerate(asm, horizon, budget=budget)
    except BudgetExceeded as exc:
        return "budget", exc.step, exc.frontier
    except InvalidWeight as exc:
        return "invalid", str(exc)
    try:
        certify_tight_lower_bound(EosBoundFamily.constant(floor), asm=asm, horizon=horizon,
                                  budget=budget)
    except BoundViolated as exc:
        return tuple(series.values.tolist()), tuple(series.min_eos.tolist()), \
            series.support_exhausted_at, (exc.step, exc.prefix, exc.observed)
    return tuple(series.values.tolist()), tuple(series.min_eos.tolist()), \
        series.support_exhausted_at, None


# P(a) = 1/(e^10 + 1) at every step: the weight underflows to 0 at step 75,
# inside the unrolled chain of steps 65..128, so support runs out at 76
_UNDERFLOWING_RNN = RnnAsm(alphabet=Alphabet(("a",)), input_embedding=np.zeros((2, 1)),
                           output_embedding=np.array([[-10.0], [0.0]]),
                           input_weights=np.zeros((1, 1)), recurrent_weights=np.zeros((1, 1)),
                           bias=np.ones(1), activation="relu", initial_hidden=np.ones(1))
# h' = relu(10 h + 1) overflows to inf, whose softmax is NaN at step 311
_OVERFLOWING_RNN = replace(make_nontight_relu_rnn(), recurrent_weights=np.array([[10.0]]))


def test_an_underflowing_weight_still_exhausts_the_support():
    # every conditional is a distribution; only the prefix mass runs out
    assert eos_hazard_enumerate(_UNDERFLOWING_RNN, 200).support_exhausted_at == 76


class _SignedRelu(RnnAsm):
    """A relu RNN whose first symbol negates the new state, so that a state
    of zeros is ``-0.0`` along it and ``0.0`` along the others."""

    def _advance(self, recurrent, symbols):
        sign = np.where(np.asarray(symbols) == 0, -1.0, 1.0)[..., None]
        return super()._advance(recurrent, symbols) * sign


def _scalar_rnn(cls=RnnAsm, **weights) -> RnnAsm:
    """A scalar tanh RNN over ``a`` and ``b``, but for what ``weights`` replace."""
    return cls(**{"alphabet": Alphabet(("a", "b")), "input_embedding": [[1.0], [-1.0], [0.0]],
                  "output_embedding": [[0.5], [-0.5], [-1.0]], "input_weights": [[0.0]],
                  "recurrent_weights": [[0.9]], "bias": [0.1], "activation": "tanh",
                  "initial_hidden": [0.3], **weights})


# a and b have the same successor at every step: a budget of one key holds
_POOLING_RNN = _scalar_rnn()
# a's successor is -0.0 and b's 0.0, one key
_SIGNED_ZERO_RNN = _scalar_rnn(_SignedRelu, activation="relu", bias=[-1.0])
# h counts: a adds 2, b resets to 0, c adds 1, and EOS gets less likely as h
# grows; step 3's keys arrive as 4, 0, 3, 2, 1 from nine successors
_COUNTING_RNN = _scalar_rnn(alphabet=Alphabet(("a", "b", "c")),
                            input_embedding=[[2.0], [-1000.0], [1.0], [0.0]],
                            output_embedding=[[0.5], [0.0], [0.0], [-1.0]], input_weights=[[1.0]],
                            recurrent_weights=[[1.0]], bias=[0.0], activation="relu",
                            initial_hidden=[0.0])


def test_the_pooling_examples_pool():
    for asm, budget in ((_POOLING_RNN, 1), (_SIGNED_ZERO_RNN, 1), (_COUNTING_RNN, 100)):
        assert eos_hazard_enumerate(asm, 30, budget=budget).horizon == 30
    states, keys = _SIGNED_ZERO_RNN.successors([[0.0]], np.array([0, 0]), np.array([0, 1]))
    assert np.signbit(states[:, 0]).tolist() == [True, False]
    assert keys.tobytes() == bytes(16)
    with pytest.raises(BudgetExceeded) as info:
        eos_hazard_enumerate(_COUNTING_RNN, 30, budget=4)
    assert (info.value.step, info.value.frontier) == (3, 5)
    # h = 4 and h = 3 fail at step 3; 4 arrived first
    with pytest.raises(BoundViolated) as info:
        certify_tight_lower_bound(EosBoundFamily.constant(0.02), asm=_COUNTING_RNN, horizon=5)
    assert (info.value.step, info.value.prefix) == (3, ("a", "a"))


@settings(max_examples=80, deadline=None)
@given(small_rnns(), hst.integers(1, 6), hst.integers(1, 60), hst.floats(0.0, 0.6))
@example(_POOLING_RNN, 60, 1, 0.0)
@example(_SIGNED_ZERO_RNN, 60, 1, 0.0)
@example(_COUNTING_RNN, 30, 4, 0.0)
@example(_COUNTING_RNN, 30, 100, 0.02)
@example(_UNDERFLOWING_RNN, 200, 1, 0.0)
@example(_OVERFLOWING_RNN, 400, 1, 0.0)
@example(make_tight_softplus_rnn(), 5, 0, 0.0)
@example(make_tight_softplus_rnn(), 4000, 1, 0.0003)  # fails at step 3333
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_batched_rnn_walk_matches_the_scalar_hooks(asm, horizon, budget, floor):
    # RnnAsm steps a whole frontier in one kernel call, and unrolls a run of
    # one-symbol steps in batches; CountingAsm has only the scalar hooks, so
    # its walk runs the base class's per-state loop, one step per unroll
    assert walk_outcome(asm, horizon, budget, floor) \
        == walk_outcome(CountingAsm(asm), horizon, budget, floor)


class TableAsm(Asm):
    """A deterministic automaton over ints: ``step`` follows ``table`` and
    each state has a fixed conditional, zeros allowed.  With ``chain``, it
    unrolls up to ``chain`` steps per call through its own override."""

    def __init__(self, table, conds, chain=0):
        self.alphabet = Alphabet(("a", "b")[:len(table[0])])
        self.table, self.conds, self.chain = table, conds, chain

    def initial_state(self):
        return 0

    def step(self, state, symbol):
        return self.table[state][self.alphabet.index(symbol)]

    def state_conditional(self, state):
        return self.conds[state]

    def unroll(self, state, symbol, n):
        if not self.chain:
            return super().unroll(state, symbol, n)
        chain = np.empty(min(n, self.chain), dtype=object)
        for i in range(len(chain)):
            chain[i] = state = self.table[state][symbol]
        return chain


class SteppedTableAsm(TableAsm):
    """A :class:`TableAsm` without an ``unroll`` override."""

    unroll = Asm.unroll


@hst.composite
def table_asms(draw) -> tuple:
    q, k = draw(hst.integers(1, 5)), draw(hst.integers(1, 2))
    table = [[draw(hst.integers(0, q - 1)) for _ in range(k)] for _ in range(q)]
    masses = hst.lists(hst.sampled_from([0.0, 0.0, 1.0, 3.0]), min_size=k + 1, max_size=k + 1)
    conds = [np.array(w) / sum(w) for w in (draw(masses.filter(any)) for _ in range(q))]
    return table, conds


def loop_hazards(asm, horizon) -> tuple:
    """The hazard series by a loop over every (row, symbol) pair, pooling
    successors by state key in first-arrival order and adding their weights
    in that order: the reference for the array step in tightness._frontiers."""
    eos, states, weights, values = asm.alphabet.eos_index, [asm.initial_state()], [1.0], []
    for _ in range(horizon):
        conds = [np.asarray(asm.state_conditional(s), dtype=float).tolist() for s in states]
        num = math.fsum(w * cond[eos] for w, cond in zip(weights, conds))
        values.append(min(max(num / math.fsum(weights), 0.0), 1.0))
        pooled: dict = {}
        for state, w, cond in zip(states, weights, conds):
            for j, p in enumerate(cond[:eos]):
                if w * p > 0:
                    nxt = asm.step(state, asm.alphabet.symbols[j])
                    pooled.setdefault(asm.state_key(nxt), [nxt, 0.0])[1] += w * p
        if not pooled:
            break
        states, weights = [s for s, _ in pooled.values()], [w for _, w in pooled.values()]
    return tuple(values)


_SPLIT, _A, _A_OR_STOP, _STOP = [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]
_B = [0.0, 1.0, 0.0]


@settings(max_examples=150, deadline=None)
@given(table_asms(), hst.integers(1, 4), hst.integers(1, 30), hst.integers(0, 4),
       hst.floats(0.0, 0.6))
# the one pair of step 2 leaves row 1 (state 2), not row 0
@example(([[1, 2], [4, 4], [3, 3], [3, 3], [4, 4]], [_SPLIT, _STOP, _A, _A_OR_STOP, _STOP]),
         4, 6, 4, 0.0)
# a chain along a is cut by a branch at state 2; the single a that follows
# must step from state 3, not read the cut chain's next row
@example(([[1, 1], [2, 2], [3, 3], [4, 4], [4, 4]], [_A, _A, _SPLIT, _A_OR_STOP, _STOP]),
         4, 6, 4, 0.0)
# the chain 2, 3 along a is cut by state 2's branch to 3 and 4: step 4 has both
@example(([[1, 1], [2, 2], [3, 4], [3, 3], [4, 4]], [_A, _A, _SPLIT, _A_OR_STOP, _STOP]),
         4, 6, 4, 0.0)
# ... and by state 2's switch to b, which leads to 4, not 3
@example(([[1, 1], [2, 2], [3, 4], [3, 3], [4, 4]], [_A, _A, _B, _A_OR_STOP, _STOP]),
         4, 6, 4, 0.0)
def test_unrolled_chains_match_single_steps(spec, chain, horizon, budget, floor):
    # single-symbol runs that switch symbol, branch and come back, through an
    # unroll that may return fewer rows than asked, against one step per call
    # and against the finite-state engine, which walks no frontier
    unrolled = walk_outcome(TableAsm(*spec, chain=chain), horizon, budget, floor)
    assert unrolled == walk_outcome(TableAsm(*spec), horizon, budget, floor)
    table, conds = spec
    symbols = ("a", "b")[:len(table[0])]
    trans = {a: np.zeros((len(table), len(table))) for a in symbols}
    for state, row in enumerate(table):
        for j, nxt in enumerate(row):
            trans[symbols[j]][state, nxt] += conds[state][j]
    init = np.eye(len(table))[0]
    fsa = eos_hazard_fsa(build_sfssm(Alphabet(symbols), trans, init, [c[-1] for c in conds]),
                         horizon)
    if unrolled[0] != "budget":
        assert unrolled[0] == pytest.approx(fsa.values, abs=1e-12)
        assert unrolled[2] == fsa.support_exhausted_at
        assert unrolled[0] == loop_hazards(TableAsm(*spec), horizon)  # bit for bit


@pytest.mark.parametrize("bad", [[1.5, -0.5, 0.0], [0.5, math.nan, 0.5]])
def test_invalid_weight_inside_an_unrolled_chain_is_an_error(bad):
    # state 2 is the first row of the second chain along a, whose next row is
    # fine: the bad weight on b must end the stretch there and raise
    asm = TableAsm([[1, 1], [2, 2], [3, 3], [3, 3]], [_A, _A, np.array(bad), _A_OR_STOP], chain=4)
    with pytest.raises(InvalidWeight, match="at step 3 is not a distribution: symbol 'b' has "):
        eos_hazard_enumerate(asm, horizon=10)


_BAD_ROWS = [
    ([math.nan, 0.5, 0.5], "symbol 'a' has nan"),
    ([math.inf, 0.5, 0.5], "symbol 'a' has inf"),
    ([1.1, -0.1, 0.0], "symbol 'b' has -0.1"),
    ([0.6, 0.5, -0.1], "symbol 'EOS' has -0.1"),
    ([0.2, 0.2, 0.2], "it sums to 0.6"),
    ([1.0, 0.5, 0.5], "it sums to 2.0"),
    ([0.0, 0.0, 0.0], "it sums to 0.0"),
    ([math.inf, -math.inf, 0.5], "symbol 'a' has inf"),
]


@pytest.mark.parametrize("chain", [False, True])
@pytest.mark.parametrize("bad, fault", _BAD_ROWS)
def test_every_walk_rejects_a_row_that_is_no_distribution_at_its_step(bad, fault, chain):
    # steps 1 and 2 are fine and the bad row is the conditional at step 3:
    # reached by a branching frontier, or as the third row of a chain along a
    if chain:
        asm = TableAsm([[1, 1], [2, 2], [3, 3], [3, 3]],
                       [np.array([0.6, 0.0, 0.4])] * 2 + [np.array(bad), _A_OR_STOP], chain=4)
    else:
        asm = FunctionAsm(Alphabet(("a", "b")),
                          lambda prefix: [0.4, 0.4, 0.2] if len(prefix) < 2 else bad)
    message = f"at step 3 is not a distribution: {re.escape(fault)}"
    walks = [lambda: eos_hazard_enumerate(asm, 10),
             lambda: certify_tight_lower_bound(EosBoundFamily.constant(0.1), asm=asm, horizon=10),
             lambda: monte_carlo_termination(asm, 100, max_len=10, seed=0),
             lambda: analyze(asm, horizon=10, bound=EosBoundFamily.constant(0.1),
                             upper=EosBoundFamily.geometric(0.5, 0.5), samples=100, max_len=10, seed=0)]
    for walk in walks:
        with pytest.raises(InvalidWeight, match=message):
            walk()


def test_a_row_of_inf_and_minus_inf_is_an_error_not_a_warning():
    # its sum is inf - inf, a NaN that numpy warns about, and the suite makes
    # that RuntimeWarning an error which would replace the intended one
    asm = FunctionAsm(Alphabet(("a", "b")), lambda prefix: [math.inf, -math.inf, 0.5])
    message = "at step 1 is not a distribution: symbol 'a' has inf"
    with pytest.raises(InvalidWeight, match=message):
        eos_hazard_enumerate(asm, 3)
    with pytest.raises(InvalidWeight, match=message):
        monte_carlo_termination(asm, 10, max_len=3, seed=0)
    with pytest.raises(NotADistribution, match=r"sums to nan; .* at \[\(1, -inf\)\]"):
        validate_conditional(asm, ())


def test_a_model_build_sfssm_accepts_passes_every_walk():
    # every row is 0.9999999e-9 short of 1, inside build_sfssm's ROW_TOL; after
    # "a a" the mixed conditional rounds to more than 1e-9 short
    short = 0.9999999e-9
    model = build_sfssm(Alphabet(("a",)), {"a": np.array([[0.05, 0.25], [0.15, 0.15]])},
                        [1.0, 0.0], [0.7 - short, 0.7 - short])
    asm = SfssmAsm(model)
    assert abs(asm.conditional(("a", "a")).sum() - 1.0) > 1e-9
    for prefix in [(), ("a",), ("a", "a"), ("a",) * 3]:
        validate_conditional(asm, prefix)
    series = eos_hazard_enumerate(asm, 10)
    assert series.values == pytest.approx(eos_hazard_fsa(model, 10).values, abs=1e-12)
    estimate = monte_carlo_termination(asm, 1000, max_len=100, seed=0)
    assert estimate.terminated == 1000


def test_a_trimmed_model_cannot_be_walked(fig1a):
    # trim drops the trap b, so the row of state a sums to 0.8: no distribution
    asm = SfssmAsm(trim(fig1a))
    message = r"at step 2 is not a distribution: it sums to 0\.7999"
    with pytest.raises(InvalidWeight, match=message):
        eos_hazard_enumerate(asm, 5)
    with pytest.raises(InvalidWeight, match=message):
        monte_carlo_termination(asm, 100, max_len=5, seed=0)


def test_one_symbol_walk_unrolls_in_doubling_batches():
    asm = CountingRnn.of(make_tight_softplus_rnn())
    eos_hazard_enumerate(asm, 10_000)  # stepped one state at a time: 10,000 and 9,999 calls
    assert asm.calls["state_conditionals"] <= 25
    assert asm.calls["successors"] == 0


def test_branching_walks_keep_their_model_calls():
    tanh = CountingRnn.of(seeded_tanh_model(5))
    eos_hazard_enumerate(tanh, 14)
    assert tanh.calls == {"state_conditionals": 14, "successors": 13}
    parity = CountingAsm(ParityAsm())
    eos_hazard_enumerate(parity, 16)
    assert parity.calls == {"state_conditional": 16, "step": 30}


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


def test_upper_bound_slack_is_relative():
    # a hazard twice the bound is a violation however small both are
    series = _series_from_values([1e-13] * 5, None)
    with pytest.raises(BoundViolated) as info:
        certify_nontight_upper_bound(series, EosBoundFamily.geometric(1e-13, 0.5))
    assert info.value.step == 1


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


@pytest.mark.parametrize("make", [
    lambda: EosBoundFamily.harmonic(1.0, math.inf),      # identically 0, yet "divergent"
    lambda: EosBoundFamily.harmonic(math.nan, 1.0),
    lambda: EosBoundFamily.log_harmonic(1.0, math.inf),
    lambda: EosBoundFamily.log_harmonic(1.0, 1e-300),    # log(1 + d) is 0
    lambda: EosBoundFamily.geometric(math.inf, 0.5),
    lambda: EosBoundFamily.constant(math.nan),
])
def test_bound_families_reject_degenerate_parameters(make):
    with pytest.raises(OutOfRange):
        make()


@pytest.mark.parametrize("make, error, message", [
    (lambda: EosBoundFamily.harmonic(-0.1, 1.0), OutOfRange, "harmonic bound needs c >= 0"),
    (lambda: EosBoundFamily.harmonic(0.1, -0.5), OutOfRange, "harmonic bound needs c >= 0"),
    (lambda: EosBoundFamily.geometric(-0.5, 0.5), OutOfRange, "geometric bound needs c >= 0"),
    (lambda: EosBoundFamily(kind="quadratic"), ValueError, "unknown bound family kind: 'quadratic'"),
    (lambda: EosBoundFamily.harmonic().value(0), ValueError, "steps are 1-based"),
    (lambda: EosBoundFamily.harmonic().geometric_tail(10), ValueError,
     "only defined for geometric families"),
])
def test_bound_families_name_what_they_reject(make, error, message):
    # a negative c would also fail the peak check, but with another message
    with pytest.raises(error, match=re.escape(message)):
        make()


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


@pytest.mark.parametrize("family", [
    EosBoundFamily.constant(0.1), EosBoundFamily.constant(1), EosBoundFamily.harmonic(1.0, 1.0),
    EosBoundFamily.harmonic(0.7, 0.3), EosBoundFamily.harmonic(2, 3),
    EosBoundFamily.log_harmonic(1.0, 1.0), EosBoundFamily.log_harmonic(0.3, 2.5),
    EosBoundFamily.geometric(1.0, 0.5), EosBoundFamily.geometric(2.7, 0.37),
    EosBoundFamily.geometric(0.9, 0.999), EosBoundFamily.table([0.5, 0.3, 0.2]),
    EosBoundFamily.table([]),
])
def test_bound_family_values_are_its_value_at_each_step_bit_for_bit(family):
    steps = range(1, 100_001)
    want = np.array([family.value(t) for t in steps], dtype=float)
    assert family.values(np.arange(1, 100_001)).tobytes() == want.tobytes()
    assert family.values(steps[::-7]).tobytes() == want[::-7].tobytes()
    assert family.values(range(5, 5)).size == 0
    with pytest.raises(ValueError, match="steps are 1-based"):
        family.values([3, 0])


@pytest.mark.parametrize("text, family", [
    ("constant:0.1", EosBoundFamily.constant(0.1)),
    ("harmonic:2,3", EosBoundFamily.harmonic(2, 3)),
    ("harmonic:0.5", EosBoundFamily.harmonic(0.5, 1)),
    ("harmonic", EosBoundFamily.harmonic(1, 1)),
    ("log-harmonic:0.5,2", EosBoundFamily.log_harmonic(0.5, 2)),
    ("log-harmonic", EosBoundFamily.log_harmonic(1, 1)),
    ("geometric:1.95,0.5", EosBoundFamily.geometric(1.95, 0.5)),
    ("table:0.1", EosBoundFamily.table([0.1])),
    ("table: 0.1, 0,1", EosBoundFamily.table([0.1, 0.0, 1.0])),
])
def test_bound_spelling_parses_to_the_constructed_family(text, family):
    assert EosBoundFamily.parse(text) == family


@pytest.mark.parametrize("text", [
    "table:0.1,,0.05",     # an empty field does not shift the others
    "harmonic:,5",
    "constant:0.1,",
    "table:",
    "harmonic:",
    "geometric:1",         # missing field
    "constant",
    "table",
    "constant:0.1,0.2",    # extra field
    "harmonic:1,1,7",
    "constant:x",          # not a number
    "geometric:0.5,0x1",
    "constant:inf",
    "harmonic:1,inf",
    "constant:nan",
    "table:0.1,nan",
    "quadratic:1",         # unknown family
    "",
    "Constant:0.1",
])
def test_bad_bound_spelling_is_out_of_range(text):
    with pytest.raises(OutOfRange, match="bound"):
        EosBoundFamily.parse(text)


_UNIT = hst.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(hst.one_of(
    hst.tuples(hst.just("constant"), hst.tuples(_UNIT)),
    hst.tuples(hst.just("harmonic"), hst.tuples(_UNIT, hst.floats(1.0, 1e6))),
    hst.tuples(hst.just("log-harmonic"), hst.tuples(_UNIT, hst.floats(1.0, 1e6))),
    hst.tuples(hst.just("geometric"), hst.tuples(_UNIT, hst.floats(1e-6, 0.999))),
    hst.tuples(hst.just("table"), hst.lists(_UNIT, min_size=1, max_size=6).map(tuple)),
))
def test_bound_spelling_round_trips(spec):
    kind, params = spec
    make = {"constant": EosBoundFamily.constant, "harmonic": EosBoundFamily.harmonic,
            "log-harmonic": EosBoundFamily.log_harmonic, "geometric": EosBoundFamily.geometric,
            "table": lambda *values: EosBoundFamily.table(values)}[kind]
    try:
        family = make(*params)
    except OutOfRange:   # e.g. a log-harmonic peak above 1
        return
    assert EosBoundFamily.parse(f"{kind}:{','.join(repr(p) for p in params)}") == family


# -- Monte Carlo --------------------------------------------------------------------------------

def test_monte_carlo_sure_stop_is_exact():
    estimate = monte_carlo_termination(SfssmAsm(sure_stopper()), 5000, max_len=10, seed=3)
    assert estimate.terminated_fraction == 1.0
    assert estimate.truncated == 0
    assert estimate.mean_length_of_terminated == 0.0


def test_monte_carlo_is_deterministic_per_seed(fig1a):
    asm = SfssmAsm(fig1a)
    first = monte_carlo_termination(asm, 3000, max_len=200, seed=11)
    second = monte_carlo_termination(asm, 3000, max_len=200, seed=11)
    other = monte_carlo_termination(asm, 3000, max_len=200, seed=12)
    assert first == second
    assert first != other


def test_monte_carlo_matches_exact_leak(fig1a):
    estimate = monte_carlo_termination(SfssmAsm(fig1a), 20_000, max_len=500, seed=7)
    assert abs(estimate.terminated_fraction - 1.0 / 3.0) <= 3 * estimate.confidence_halfwidth
    assert estimate.truncated_fraction == pytest.approx(2.0 / 3.0, abs=0.02)


def test_monte_carlo_softplus_cdf_at_truncation():
    estimate = monte_carlo_termination(make_tight_softplus_rnn(), 20_000, max_len=1000, seed=5)
    assert abs(estimate.terminated_fraction - (1.0 - 1.0 / 1001.0)) <= 3 * estimate.confidence_halfwidth


def test_monte_carlo_length_accounting(fig1b):
    estimate = monte_carlo_termination(SfssmAsm(fig1b), 2000, max_len=2000, seed=1)
    assert estimate.terminated + estimate.truncated == estimate.samples
    assert sum(c for _, c in estimate.length_counts) == estimate.terminated
    assert estimate.length_quantile(0.5) >= 1  # strings need at least one symbol


@pytest.mark.parametrize("q, length", [(0.0, 1), (0.2, 1), (0.21, 3), (0.7, 3), (0.71, 7),
                                       (1.0, 7), (1.5, 7)])
def test_length_quantile_is_the_first_length_whose_running_count_reaches_it(q, length):
    estimate = TerminationEstimate(samples=12, max_len=9, seed=0, terminated=10, truncated=2,
                                   length_counts=((1, 2), (3, 5), (7, 3)))
    assert estimate.length_quantile(q) == length


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
    # two thirds of the runs end up in the absorbing state b; its conditional
    # and successor are computed once, not once per step
    counts = []
    for max_len in (1_000, 10_000):
        asm = CountingAsm(SfssmAsm(fig1a))
        estimate = monte_carlo_termination(asm, 1000, max_len=max_len, seed=0)
        assert estimate.truncated > 0
        counts.append(asm.calls)
    assert counts[0] == counts[1] == {"step": 4, "state_conditional": 3}


@settings(max_examples=150, deadline=None)
@given(table_asms(), hst.integers(1, 4), hst.integers(1, 3000), hst.integers(1, 40),
       hst.integers(0, 3))
# a chain along a cut by a branch at state 2
@example(([[1, 1], [2, 2], [3, 3], [4, 4], [4, 4]], [_A, _A, _SPLIT, _A_OR_STOP, _STOP]),
         4, 1000, 30, 0)
# a chain along a cut by every run stopping at state 3
@example(([[1, 1], [2, 2], [3, 3], [3, 3]], [_A, _A, _A, _STOP]), 4, 1000, 30, 0)
# a chain along a into state 2, whose successor along a is itself: once
# with runs stopping there, once trapped there
@example(([[1, 1], [2, 2], [2, 2]], [_A, _A, _A_OR_STOP]), 4, 1000, 30, 0)
@example(([[1, 1], [2, 2], [2, 2]], [_A, _A, _A]), 4, 1000, 30, 0)
def test_monte_carlo_reads_unrolled_chains_as_single_steps(spec, chain, samples, max_len, seed):
    # through an unroll that may return fewer rows than asked, against a
    # model without an unroll override, which is stepped one state at a time
    estimate = monte_carlo_termination(TableAsm(*spec, chain=chain), samples, max_len, seed)
    assert estimate == monte_carlo_termination(SteppedTableAsm(*spec), samples, max_len, seed)


def test_monte_carlo_reads_chains_without_an_unroll_override(fig1a, monkeypatch):
    # the default unroll's one-row chains serve a lone key's successors too
    taken = []
    take = tightness._Chains.take

    def counted(self, state, symbol, *args):
        taken.append(state)
        return take(self, state, symbol, *args)
    monkeypatch.setattr(tightness._Chains, "take", counted)
    one_symbol = SteppedTableAsm([[1, 1], [2, 2], [3, 3], [3, 3]], [_A, _A, _A, _STOP])
    assert monte_carlo_termination(one_symbol, 100, max_len=10).length_counts == ((3, 100),)
    assert taken == [0, 1, 2]  # states 1, 2 and 3 each came from a chain
    assert monte_carlo_termination(SfssmAsm(fig1a), 1000, max_len=50).samples == 1000


def test_monte_carlo_reads_one_symbol_runs_from_doubling_chains():
    asm = CountingRnn.of(make_tight_softplus_rnn())
    monte_carlo_termination(asm, 10_000, max_len=10_000, seed=0)  # about 10,000 steps
    assert asm.calls["state_conditionals"] <= 25
    assert asm.calls["successors"] == 0


@pytest.mark.parametrize("make, truncated", [(make_tight_softplus_rnn, 11),
                                              (make_nontight_relu_rnn, 2996)],
                         ids=["softplus", "relu"])
@pytest.mark.parametrize("max_len", [1000, 1025])
def test_monte_carlo_unrolls_no_state_past_the_end_of_the_walk(make, truncated, max_len,
                                                               monkeypatch):
    # some runs walk every step, so the chains hand out the max_len - 1 states
    # after the first; doubling past them unrolled up to 1,023 rows no step used
    rows = []
    unroll = RnnAsm.unroll

    def counted(self, state, symbol, n):
        batch = unroll(self, state, symbol, n)
        rows.append(len(batch))
        return batch
    monkeypatch.setattr(RnnAsm, "unroll", counted)
    estimate = monte_carlo_termination(make(), 10_000, max_len=max_len, seed=1)
    assert sum(rows) == max_len - 1
    assert estimate.truncated == truncated


def count_pooled_steps(monkeypatch, cls: type) -> list[int]:
    """A one-element list counting the calls to ``cls.can_stop``: the Monte
    Carlo walk asks at least once per step drawn, and exactly once when the
    step's successors share one state key."""
    steps = [0]
    can_stop = cls.can_stop

    def counted(self, state):
        steps[0] += 1
        return can_stop(self, state)
    monkeypatch.setattr(cls, "can_stop", counted)
    return steps


@pytest.mark.parametrize("make", [make_tight_softplus_rnn, make_nontight_relu_rnn])
def test_monte_carlo_asks_no_conditional_past_its_last_step(make):
    # runs go on to step 1,000, which draws which of them stop and steps none on:
    # one conditional a step, none for a step 1,001 that is never drawn
    asm = CountingAsm(make())
    estimate = monte_carlo_termination(asm, 10_000, max_len=1000, seed=1)
    assert estimate.truncated > 0
    assert asm.calls["state_conditional"] == 1000


def test_monte_carlo_steps_do_not_grow_with_the_sample_count(monkeypatch):
    # one walk draws every run, so the relu RNN takes max_len steps at any N
    steps = count_pooled_steps(monkeypatch, RnnAsm)
    for samples in (1000, 2**17, 10**6):
        steps[0] = 0
        monte_carlo_termination(make_nontight_relu_rnn(), samples, max_len=50, seed=0)
        assert steps[0] == 49  # step 50 draws which runs stop and steps none on


def test_monte_carlo_rejects_more_samples_than_one_draw_holds():
    asm = SfssmAsm(BUILTINS["fig1a"]())
    for samples in (0, 2**63):
        with pytest.raises(OutOfRange, match=rf"samples is {samples}; .* 1 to 2\*\*63 - 1 runs"):
            monte_carlo_termination(asm, samples, max_len=10, seed=0)
    estimate = monte_carlo_termination(asm, 2**63 - 1, max_len=10, seed=0)
    assert estimate.terminated + estimate.truncated == 2**63 - 1


def test_monte_carlo_rejects_a_max_len_below_one():
    with pytest.raises(ValueError, match="max_len must be at least 1"):
        monte_carlo_termination(ParityAsm(), 10, max_len=0, seed=0)


def test_an_estimate_in_which_nothing_terminates_has_no_mean_or_quantile():
    never = build_sfssm(Alphabet(("a",)), {"a": np.ones((1, 1))}, [1.0], [0.0])
    estimate = monte_carlo_termination(SfssmAsm(never), 50, max_len=10, seed=0)
    assert estimate.truncated == 50
    assert math.isnan(estimate.mean_length_of_terminated)
    assert estimate.length_quantile(0.5) is None


def one_symbol_sfssm(edges, term):
    """A model over ``a`` on the states named in ``term`` (the first starts),
    with ``edges`` ``(src, dst, prob)`` by name."""
    names = tuple(term)
    trans = np.zeros((len(names), len(names)))
    for src, dst, prob in edges:
        trans[names.index(src), names.index(dst)] = prob
    init = np.eye(len(names))[0]
    return build_sfssm(Alphabet(("a",)), {"a": trans}, init, list(term.values()), names=names)


def cycle_entry(k: int):
    # B stops with probability 0.5 or enters the deterministic k-cycle C0 -> ... -> C0
    cycle = [(f"C{i}", f"C{(i + 1) % k}", 1.0) for i in range(k)]
    return one_symbol_sfssm([("B", "C0", 0.5), *cycle],
                            {"B": 0.5, **{f"C{i}": 0.0 for i in range(k)}})


def walk_lengths_and_estimates(monkeypatch, model, max_lens, samples=1000, seed=0):
    """``(can_stop calls, estimate without max_len)`` of a walk of ``model`` at each max_len."""
    steps = count_pooled_steps(monkeypatch, SfssmAsm)
    seen = []
    for max_len in max_lens:
        steps[0] = 0
        estimate = monte_carlo_termination(SfssmAsm(model), samples, max_len=max_len, seed=seed)
        seen.append((steps[0], replace(estimate, max_len=None)))
    return seen


def two_symbol_trap():
    # S stops with probability 0.3 or falls into T, which loops on both a and b
    ta = np.array([[0.5, 0.0], [0.0, 0.5]])
    tb = np.array([[0.0, 0.2], [0.0, 0.5]])
    return build_sfssm(Alphabet(("a", "b")), {"a": ta, "b": tb}, [1, 0], [0.3, 0],
                       names=("S", "T"))


@pytest.mark.parametrize("make", [lambda: BUILTINS["fig1a"](), two_symbol_trap],
                         ids=["fig1a", "two-symbol-trap"])
def test_monte_carlo_stops_once_every_live_run_is_trapped(monkeypatch, make):
    # once the live runs sit in a closed set that cannot stop, the walk ends:
    # the steps taken and the estimate do not depend on max_len
    seen = walk_lengths_and_estimates(monkeypatch, make(), (10**3, 10**6))
    assert seen[0][1].truncated > 0
    assert seen[0] == seen[1]
    assert seen[0][0] < 100


def test_monte_carlo_stops_once_live_runs_alternate_inside_a_trap(monkeypatch):
    # trap.model's runs that start with c alternate C1 -> C2 -> C1, so no
    # frontier alone is closed, yet no state of the cycle is co-accessible
    model = load_model(str(MODELS_DIR / "trap.model"))
    seen = walk_lengths_and_estimates(monkeypatch, model, (10**3, 10**5), samples=3000, seed=2)
    assert seen[0][1].truncated > 0
    assert seen[0] == seen[1]
    assert seen[0][0] < 100


def test_monte_carlo_samples_on_while_an_alternating_run_can_leave():
    # A and B alternate and cannot stop, but B leaves for the stopping state
    # C: the union of two frontiers {A, B} is not closed
    ta = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    tb = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    model = build_sfssm(Alphabet(("a", "b")), {"a": ta, "b": tb}, [1, 0, 0], [0, 0, 1],
                        names=("A", "B", "C"))
    estimate = monte_carlo_termination(SfssmAsm(model), 1000, max_len=1000, seed=0)
    assert estimate.terminated == 1000


def test_monte_carlo_samples_on_while_a_live_run_can_leave():
    # X cannot stop but leaves for the stopping state Y; a frontier holding
    # only X is not closed, since X's successor Y is not live
    ta = np.array([[0.5, 0.0], [0.0, 0.0]])
    tb = np.array([[0.0, 0.5], [0.0, 0.0]])
    model = build_sfssm(Alphabet(("a", "b")), {"a": ta, "b": tb}, [1, 0], [0, 1],
                        names=("X", "Y"))
    estimate = monte_carlo_termination(SfssmAsm(model), 1000, max_len=1000, seed=0)
    assert estimate.terminated == 1000


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_monte_carlo_stops_in_a_trap_of_any_period(monkeypatch, k):
    # no union of a few frontiers holds a long cycle; co-accessibility sees it at once
    seen = walk_lengths_and_estimates(monkeypatch, cycle_entry(k), (10**3, 10**4))
    assert seen[0] == seen[1]
    assert seen[0][0] < 10
    assert seen[0][1].terminated + seen[0][1].truncated == 1000 and seen[0][1].truncated > 0


def test_monte_carlo_stops_when_the_belief_cycles_with_period_six(monkeypatch):
    # one symbol leads into a 3-cycle and a 2-cycle at once, so the
    # belief state of the runs that did not stop recurs every 6 steps
    cycles = [("A0", "A1", 1.0), ("A1", "A2", 1.0), ("A2", "A0", 1.0),
              ("D0", "D1", 1.0), ("D1", "D0", 1.0)]
    model = one_symbol_sfssm([("B", "A0", 0.25), ("B", "D0", 0.25), *cycles],
                             {"B": 0.5, "A0": 0, "A1": 0, "A2": 0, "D0": 0, "D1": 0})
    seen = walk_lengths_and_estimates(monkeypatch, model, (10**3, 10**4))
    assert seen[0] == seen[1]
    assert seen[0][0] < 10


def test_monte_carlo_samples_on_while_the_belief_holds_a_state_that_can_stop(monkeypatch):
    # after a, the runs' belief puts mass on the trap T and on S, which stops
    # with probability 0.5 per step; every run in S stops, so 0.5 terminate
    model = one_symbol_sfssm([("B", "T", 0.5), ("B", "S", 0.5), ("S", "S", 0.5), ("T", "T", 1.0)],
                             {"B": 0.0, "S": 0.5, "T": 0.0})
    samples = 10_000
    (steps, estimate), = walk_lengths_and_estimates(monkeypatch, model, (1000,), samples)
    assert steps > 20  # S's share of the belief halves each step, and it stays positive
    assert max(length for length, _ in estimate.length_counts) > 5
    assert abs(estimate.terminated_fraction - 0.5) <= 5 * math.sqrt(0.25 / samples)


@pytest.mark.parametrize("conditional", [
    lambda prefix: [0.5, math.nan],
    lambda prefix: [1.0, 0.0] if not prefix else [math.nan, 0.0],  # NaN after a step with no EOS
])
def test_monte_carlo_nan_conditional_fails_the_draw(conditional):
    # the first NaN row is live at step 1, or at step 2 after a clean first step
    asm = FunctionAsm(Alphabet(("a",)), conditional)
    step = 1 if math.isnan(sum(conditional(()))) else 2
    with pytest.raises(InvalidWeight, match=f"at step {step} "):
        monte_carlo_termination(asm, 100, max_len=10, seed=0)


@pytest.mark.parametrize("alphabet, conditional", [
    (("a",), [0.0, 0.0]),          # no symbol and no EOS: 0/0 when normalized
    (("a", "b"), [-0.1, 0.7, 0.4]),  # clipping the -0.1 would hide it
])
def test_monte_carlo_rejects_a_conditional_that_is_no_distribution(alphabet, conditional):
    asm = FunctionAsm(Alphabet(alphabet), lambda prefix: conditional)
    with pytest.raises(InvalidWeight, match="at step 1 "):
        monte_carlo_termination(asm, 100, max_len=10, seed=0)


@pytest.mark.parametrize("last, failing_step", [([0.0, 1.0], None), ([1.0, 0.0], 4)])
def test_a_chain_row_is_checked_only_when_a_walk_reaches_it(last, failing_step):
    # a chain of 0 -> 1 -> 2 -> 3 along a holds state 3, which is no
    # distribution; it is only an error if the walk gets there
    spec = ([[1], [2], [3], [3]], [[1.0, 0.0], [0.5, 0.5], last, [0.0, 0.0]])
    asm = TableAsm(*spec, chain=4)
    if failing_step is None:
        assert eos_hazard_enumerate(asm, 10).support_exhausted_at == 4
        assert monte_carlo_termination(asm, 100, max_len=10, seed=0).terminated == 100
    else:
        with pytest.raises(InvalidWeight, match=f"at step {failing_step} is not a distribution: it sums to 0.0"):
            eos_hazard_enumerate(asm, 10)
        with pytest.raises(InvalidWeight, match=f"at step {failing_step} "):
            monte_carlo_termination(asm, 100, max_len=10, seed=0)


def test_walks_leave_nothing_for_the_cycle_collector(fig1a):
    # fig1a's absorbing b is its own successor; a walk that linked to it
    # strongly would leave a reference cycle behind every walk
    asm = SfssmAsm(fig1a)

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


# -- the analysis pipeline -----------------------------------------------------------------------

def test_analyze_finite_state_model_ignores_bounds_and_samples(fig1a):
    result = analyze(fig1a, horizon=20, bound=EosBoundFamily.constant(0.1), samples=1000,
                     max_len=50, seed=0)
    assert result.verdict == decide_tight(fig1a)
    assert result.termination == pytest.approx(1 / 3, abs=1e-12)
    assert result.leaked_mass == pytest.approx(2 / 3, abs=1e-12)
    assert same_series(result.series, eos_hazard_fsa(fig1a, 20))
    assert result.cdf.tolist() == termination_cdf(result.series).tolist()
    assert result.estimate is None
    assert result.notes == ("bounds are ignored for finite-state models; the "
                            "co-accessibility decision is exact",)


def test_analyze_model_without_useful_states():
    model = build_sfssm(Alphabet(("a",)), {"a": np.ones((1, 1))}, [1.0], [0.0])
    result = analyze(model, horizon=5, samples=10, max_len=5, seed=0)
    assert result.verdict.is_non_tight
    assert result.termination == 0.0
    assert result.leaked_mass == 1.0
    assert result.notes == ("no useful states: every string has probability 0",)


def test_analyze_hazard_reaching_one_gives_exact_termination():
    asm = SfssmAsm(sure_stopper())   # an Asm, so the general path runs
    result = analyze(asm, horizon=5, bound=EosBoundFamily.constant(0.5), samples=100,
                     max_len=10, seed=0)
    assert result.verdict.certificate is Certificate.EOS_HITS_ONE
    assert result.termination == 1.0
    assert result.leaked_mass == 0.0
    # the certificate is found before the bound is read, and the note says so
    assert result.notes == ("bounds are not checked once the hazard series proves sure "
                            "stopping; the eos-hits-one certificate is exact",)
    assert result.estimate.terminated_fraction == 1.0
    assert analyze(asm, horizon=5, samples=0, max_len=10, seed=0).notes == ()


def test_analyze_general_model_without_a_certificate():
    relu = make_nontight_relu_rnn()
    result = analyze(relu, horizon=50, samples=0, max_len=100, seed=0)
    assert result.verdict.is_inconclusive
    assert result.termination is None and result.leaked_mass is None
    assert result.estimate is None
    assert len(result.notes) == 1
    assert "--upper-bound geometric:" in result.notes[0]
    sampled = analyze(relu, horizon=50, samples=200, max_len=100, seed=4)
    assert sampled.estimate == monte_carlo_termination(relu, 200, max_len=100, seed=4)


def test_analyze_notes_numeric_evidence_of_tightness():
    # all-zero weights: EOS has probability 1/2 at every step
    zero = np.zeros((1, 1))
    coin = RnnAsm(alphabet=Alphabet(("a",)), input_embedding=np.ones((2, 1)),
                  output_embedding=np.ones((2, 1)), input_weights=zero, recurrent_weights=zero,
                  bias=np.zeros(1), activation="tanh", initial_hidden=np.zeros(1))
    result = analyze(coin, horizon=60, samples=0, max_len=1, seed=0)
    assert result.verdict.is_inconclusive
    assert len(result.notes) == 1
    assert result.notes[0].startswith("numeric evidence is consistent with termination")


def test_analyze_notes_each_bound_that_gives_no_certificate_in_order():
    result = analyze(make_tight_softplus_rnn(), horizon=10,
                     bound=EosBoundFamily.parse("table:0.5,0.3"),
                     upper=EosBoundFamily.geometric(0.9, 0.9), samples=0, max_len=1, seed=0)
    assert result.verdict.is_inconclusive
    assert [note.split()[:2] for note in result.notes] == [["lower", "bound"], ["upper", "bound"]]
    failing = analyze(make_tight_softplus_rnn(), horizon=10, bound=EosBoundFamily.constant(0.4),
                      upper=EosBoundFamily.geometric(0.1, 0.5), samples=0, max_len=1, seed=0)
    assert [note[:31] for note in failing.notes] == ["supplied lower bound does not h",
                                                     "supplied upper bound does not h"]


def test_analyze_certifies_from_the_bounds():
    tight = analyze(make_tight_softplus_rnn(), horizon=40, bound=EosBoundFamily.harmonic(1, 1),
                    samples=0, max_len=1, seed=0)
    assert tight.verdict.certificate is Certificate.DIVERGENT_BOUND_FAMILY
    assert tight.termination is None and tight.notes == ()
    leaky = analyze(make_nontight_relu_rnn(), horizon=50,
                    upper=EosBoundFamily.geometric(2.7182818278008387, 0.3678794411746719),
                    samples=0, max_len=1, seed=0)
    assert leaky.verdict.is_non_tight
    assert leaky.termination is None and leaky.notes == ()


def test_analyze_propagates_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        analyze(seeded_tanh_model(5), horizon=12, budget=16, samples=0, max_len=1, seed=0)


def test_analysis_is_frozen(fig1a):
    result = analyze(fig1a, horizon=3, samples=0, max_len=1, seed=0)
    with pytest.raises(FrozenInstanceError):
        result.termination = 1.0


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


def test_fit_geometric_tail_rejects_a_ratio_whose_powers_underflow():
    # 0.9 ** 8000 underflows to 0 under a hazard that is still positive, so
    # no finite scale dominates the series
    series = _series_from_values([0.5] * 4000 + [0.5 * 0.9 ** k for k in range(4000)], None)
    assert fit_geometric_tail(series) is None


@pytest.mark.parametrize("values, exhausted", [
    ([0.1, 0.05, 0.025], None),                  # too short to judge
    ([0.5, 0.25, 0.125, 0.0625, 0.03125], 6),     # sure stopping ends the series
    ([0.0, 0.5, 0.25, 0.125, 0.0625], None),      # a zero hazard
])
def test_fit_geometric_tail_needs_four_positive_steps_of_an_unfinished_series(values, exhausted):
    # each series decays by exactly 1/2 over its trailing half
    assert fit_geometric_tail(_series_from_values(values, exhausted)) is None


def test_suggests_tight_for_sure_stop():
    assert suggests_tight(eos_hazard_fsa(sure_stopper(), 3)) is True


def test_suggests_tight_negative_for_leaky_model(fig1a):
    assert suggests_tight(eos_hazard_fsa(fig1a, 1000)) is False


def test_series_ops_validate_arguments(fig1a):
    with pytest.raises(ValueError):
        eos_hazard_fsa(fig1a, 0)
    with pytest.raises(ValueError):
        eos_hazard_enumerate(ParityAsm(), 0)
