"""Finite-state engine: validation, probabilities, reachability, trimming,
exact tightness decisions, and n-gram estimation."""

import gc
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, BadInit, BadRow, EmptyCorpus, NegativeEntry, NoUsefulStates,
                      Sfssm, TerminationShortfall, UnknownSymbol, accessible, analyze, build_sfssm,
                      coaccessible, decide_tight, mle_ngram, model_digest, neumann_partial_sum,
                      parse_model, prefix_probability_fsa, solve_linear, solve_tightness,
                      spectral_radius_estimate,
                      string_probability_fsa, termination_probability, trim, useful_states,
                      write_model)
from seqtight import sfssm
from seqtight.sfssm import _from_edges

from conftest import dense_transitions, random_corpus, random_sfssm, strings_up_to
from test_state_index import random_deterministic


def one_state_stopper():
    return build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 1))}, [1.0], [1.0])


def all_zero_term_model():
    return build_sfssm(Alphabet(("a",)), {"a": np.ones((1, 1))}, [1.0], [0.0])


# -- construction ----------------------------------------------------------

def test_build_accepts_bigram_table(fig1a):
    assert fig1a.num_states == 3
    assert fig1a.names == ("BOS", "a", "b")
    np.testing.assert_array_equal(fig1a.init, [1, 0, 0])


def test_build_rejects_bad_row():
    alphabet = Alphabet(("a", "b"))
    trans = {
        "a": np.array([[0, 1, 0], [0, 0.7, 0], [0, 0, 0]], dtype=float),
        "b": np.array([[0, 0, 0], [0, 0, 0.2], [0, 0, 1.0]], dtype=float),
    }
    with pytest.raises(BadRow) as info:
        build_sfssm(alphabet, trans, [1, 0, 0], [0, 0.2, 0], names=("BOS", "a", "b"))
    assert info.value.name == "a"
    assert info.value.total == pytest.approx(1.1)


def test_build_rejects_bad_init():
    with pytest.raises(BadInit):
        build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 1))}, [0.5], [1.0])


def test_build_rejects_negative_entries():
    with pytest.raises(NegativeEntry) as info:
        build_sfssm(Alphabet(("a",)), {"a": np.array([[-0.1]])}, [1.0], [1.1])
    assert info.value.location == ("trans", "a", 0, 0)


@pytest.mark.parametrize("trans, init, term, location", [
    ([[0.0, 0.0], [0.0, 0.0]], [1.5, -0.5], [1.0, 1.0], ("init", 1)),
    ([[1.5]], [1.0], [-0.5], ("term", 0)),
])
def test_build_rejects_a_negative_init_or_term_entry(trans, init, term, location):
    # the vector and every row still sum to 1, so only the sign check catches it
    with pytest.raises(NegativeEntry) as info:
        build_sfssm(Alphabet(("a",)), {"a": np.array(trans)}, init, term)
    assert info.value.location == location


def test_build_rejects_matrices_for_unknown_symbols_or_of_the_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("symbols outside the alphabet: ['b']")):
        build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 1)), "b": np.zeros((1, 1))}, [1.0], [1.0])
    with pytest.raises(ValueError, match=re.escape("for 'a' has shape (1, 2), expected (1, 1)")):
        build_sfssm(Alphabet(("a",)), {"a": np.zeros((1, 2))}, [1.0], [1.0])


def test_degenerate_single_state_model_is_fine():
    model = one_state_stopper()
    assert string_probability_fsa(model, ()) == 1.0
    assert decide_tight(model).is_tight


def test_edges_are_stored_in_canonical_order_without_zeros():
    # symbol b before a, rows out of order, one explicit zero
    symbol, src, dst, prob = [1, 0, 0, 0], [1, 1, 0, 1], [0, 1, 0, 0], [0.5, 0.5, 0.25, 0.0]
    model = _from_edges(Alphabet(("a", "b")), (symbol, src, dst, prob), [1.0, 0.0], [0.75, 0.0])
    np.testing.assert_array_equal(model.offsets, [0, 2, 3])
    np.testing.assert_array_equal(model.src, [0, 1, 1])
    np.testing.assert_array_equal(model.dst, [0, 1, 0])
    np.testing.assert_array_equal(model.prob, [0.25, 0.5, 0.5])


def test_malformed_edge_lists_are_rejected():
    with pytest.raises(ValueError, match="offsets"):
        _from_edges(Alphabet(("a",)), ([1], [0], [0], [0.5]), [1.0], [0.5])
    with pytest.raises(ValueError, match="state index"):
        _from_edges(Alphabet(("a",)), ([0], [0], [1], [0.5]), [1.0], [0.5])


def test_from_edges_leaves_its_callers_columns_alone():
    columns = [np.array([0, 1]), np.array([0, 1]), np.array([1, 1]), np.array([1.0, 0.5])]
    init, term = np.array([1.0, 0.0]), np.array([0.0, 0.5])
    model = _from_edges(Alphabet(("a", "b")), columns, init, term)
    for array in (*columns, init, term):
        assert array.flags.writeable
        array[...] = 0
    assert model.prob.tolist() == [1.0, 0.5] and model.term.tolist() == [0.0, 0.5]


def test_a_model_needs_one_termination_entry_and_one_name_per_state(fig1a):
    with pytest.raises(ValueError, match="termination vector length differs"):
        replace(fig1a, term=fig1a.term[:2])
    with pytest.raises(ValueError, match="state-name count differs"):
        replace(fig1a, names=fig1a.names[:2])


# -- one set of checks for every way of making a model --------------------------

def direct_sfssm(alphabet, trans, init, term, names=None, state_map=None):
    """``Sfssm(...)`` of dense ``{symbol: Q x Q}`` matrices, each one's nonzero entries in
    row-major order, as :func:`build_sfssm` takes them."""
    cells = [np.nonzero(np.asarray(trans[a])) for a in alphabet.symbols]
    return Sfssm(alphabet=alphabet, src=np.concatenate([[], *(i for i, _ in cells)]),
                 dst=np.concatenate([[], *(j for _, j in cells)]),
                 prob=np.concatenate([[], *(np.asarray(trans[a])[c] for a, c in zip(alphabet.symbols, cells))]),
                 offsets=np.cumsum([0, *(len(i) for i, _ in cells)]), init=init, term=term,
                 names=tuple(names or (f"q{i}" for i in range(len(init)))), state_map=state_map)


def outcome(fn, *args, **kwargs):
    """The type and text of the ``ValueError`` ``fn`` raised; fails if it raised none."""
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


FAULTS = {   # (trans, init, term, names), the error type and its message
    "row-0.5": (({"a": [[0, 0.4], [0, 0]]}, [1, 0], [0.1, 1], ("p", "q")),
                BadRow, "state p: outgoing mass plus termination is 0.5, expected 1"),
    "row-1.5": (({"a": [[0, 1.4], [0, 0]]}, [1, 0], [0.1, 1], ("p", "q")),
                BadRow, "state p: outgoing mass plus termination is 1.5, expected 1"),
    "nan-init": (({"a": [[0, 0.9], [0, 0]]}, [np.nan, 0], [0.1, 1], ("p", "q")),
                 BadInit, "initial vector sums to nan, expected 1"),
    "negative-edge": (({"a": [[-0.1]]}, [1], [1.1], None),
                      NegativeEntry, "negative entry at ('trans', 'a', 0, 0)"),
    "negative-init": (({"a": [[0, 0], [0, 0]]}, [1.5, -0.5], [1, 1], None),
                      NegativeEntry, "negative entry at ('init', 1)"),
    "duplicate-names": (({"a": [[0, 0.5], [0, 1.0]]}, [1, 0], [0.5, 0], ("s", "s")),
                        ValueError, "state names must be distinct"),
    "2-d-init": (({"a": [[0, 0.5], [0, 1.0]]}, [[1.0], [0.0]], [0.5, 0], None),
                 ValueError, "initial vector must be one-dimensional"),
    "term-length": (({"a": [[0, 0.5], [0, 1.0]]}, [1, 0], [0.5], None),
                    ValueError, "termination vector length differs from state count"),
    "name-count": (({"a": [[0, 0.5], [0, 1.0]]}, [1, 0], [0.5, 0], ("s",)),
                   ValueError, "state-name count differs from state count"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_raises_the_same_error_through_build_sfssm_and_a_direct_call(fault):
    (trans, init, term, names), error, message = FAULTS[fault]
    trans = {a: np.array(mat, dtype=float) for a, mat in trans.items()}
    built = outcome(build_sfssm, Alphabet(("a",)), trans, init, term, names=names)
    assert built == (error, message)
    assert outcome(direct_sfssm, Alphabet(("a",)), trans, init, term, names=names) == built


def test_replace_runs_the_checks(fig1a):
    # it used to give analyze a start of 0.5 and a confident non-tight verdict
    with pytest.raises(BadInit, match="sums to 0.5"):
        replace(fig1a, init=np.array([0.5, 0.0, 0.0]))
    with pytest.raises(NegativeEntry) as info:
        replace(fig1a, prob=-fig1a.prob)
    assert info.value.location == ("trans", "a", 0, 1)


@pytest.mark.parametrize("src, dst, prob", [
    ([0, 0], [1, 0], [0.45, 0.45]),   # out of order
    ([0, 0], [1, 1], [0.45, 0.45]),   # a repeated edge
    ([0, 0], [0, 1], [0.0, 0.9]),   # a stored zero
], ids=["out-of-order", "repeated", "zero"])
def test_a_direct_call_needs_distinct_nonzero_edges_in_canonical_order(src, dst, prob):
    with pytest.raises(ValueError, match="edges must be nonzero, distinct and in canonical order"):
        Sfssm(alphabet=Alphabet(("a",)), src=src, dst=dst, prob=prob, offsets=[0, 2],
              init=[1.0, 0.0], term=[0.1, 1.0], names=("p", "q"))


def test_a_trimmed_model_may_lose_mass_but_never_gain_it(fig1a):
    sub = trim(fig1a)
    assert sub.init.sum() == 1.0 and sub.term.tolist() == [0.0, 0.1]   # row a keeps 0.8 of 1
    lossy = direct_sfssm(Alphabet(("a",)), {"a": np.array([[0, 0.5], [0, 0]])}, [0.5, 0.0],
                         [0.1, 1.0], ("p", "q"), state_map=(0, 2))
    assert lossy.state_map == (0, 2)
    with pytest.raises(BadRow, match="state p: outgoing mass plus termination is 1.05"):
        direct_sfssm(Alphabet(("a",)), {"a": np.array([[0, 0.95], [0, 0]])}, [1.0, 0.0],
                     [0.1, 1.0], ("p", "q"), state_map=(0, 2))
    with pytest.raises(BadInit, match="sums to 1.5"):
        replace(sub, init=np.array([1.5, 0.0]))
    for init, term in (([np.nan, 0.0], [0.1, 1.0]), ([1.0, 0.0], [np.nan, 1.0])):
        with pytest.raises((BadInit, BadRow), match="nan"):
            replace(sub, init=np.array(init), term=np.array(term))


def test_the_exact_decisions_refuse_a_trimmed_model(fig1a):
    # fig1a leaks 2/3; its trim stops with probability 1/3 and is not tight either
    sub = trim(fig1a)
    for decide in (decide_tight, solve_tightness):
        with pytest.raises(ValueError, match="decide the model it was trimmed from"):
            decide(sub)
    with pytest.raises(ValueError, match="decide the model it was trimmed from"):
        analyze(sub, horizon=3, samples=0, max_len=5, seed=0)
    assert termination_probability(sub) == 0.3333333333333333


@given(hst.integers(0, 2**32 - 1), hst.data())
@settings(max_examples=100, deadline=None)
def test_a_direct_model_of_valid_arrays_round_trips_and_a_shuffle_raises(seed, data):
    model = random_sfssm(np.random.default_rng(seed), max_states=6, ensure_useful=False)
    arrays = {name: getattr(model, name).copy() for name in ("src", "dst", "prob", "offsets", "init", "term")}
    built = Sfssm(alphabet=model.alphabet, names=model.names, **arrays)
    assert model_digest(parse_model(write_model(built))) == model_digest(model)
    runs = [(lo, hi) for lo, hi in zip(model.offsets[:-1].tolist(), model.offsets[1:].tolist()) if hi - lo > 1]
    if runs:
        lo, hi = data.draw(hst.sampled_from(runs))
        order = data.draw(hst.permutations(range(lo, hi)).filter(lambda p: list(p) != list(range(lo, hi))))
        for name in ("src", "dst", "prob"):
            arrays[name][lo:hi] = getattr(model, name)[order]
        with pytest.raises(ValueError, match="canonical order"):
            Sfssm(alphabet=model.alphabet, names=model.names, **arrays)


def brute_force_deterministic(model) -> bool:
    """One start state, and no two edges with the same source state and symbol."""
    pairs = [(k, int(model.src[e])) for k in range(model.alphabet.size)
             for e in range(model.offsets[k], model.offsets[k + 1])]
    return int(np.count_nonzero(model.init)) == 1 and len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("seed", range(60))
def test_deterministic_agrees_with_a_brute_force_check(seed):
    rng = np.random.default_rng([33, seed])
    model, deterministic = random_sfssm(rng, max_states=6, ensure_useful=False), random_deterministic(rng)
    assert model.deterministic == brute_force_deterministic(model)
    assert deterministic.deterministic and brute_force_deterministic(deterministic)


@pytest.mark.parametrize("seed", range(20))
def test_edge_arrays_agree_with_dense_matrices(seed):
    rng = np.random.default_rng(4000 + seed)
    model = random_sfssm(rng, ensure_useful=False)
    dense = [dense_transitions(model, a) for a in model.alphabet.symbols]
    total = np.zeros((model.num_states, model.num_states))
    for mat in dense:
        total = total + mat
    np.testing.assert_array_equal(model.transition_sum, total)
    row_mass = np.column_stack([mat.sum(axis=1) for mat in dense] + [model.term])
    np.testing.assert_allclose(model.row_mass, row_mass, rtol=0, atol=1e-15)
    alpha = rng.random(model.num_states)
    for a, mat in zip(model.alphabet.symbols, dense):
        np.testing.assert_allclose(model.forward(alpha, a), alpha @ mat, rtol=0, atol=1e-15)


@given(hst.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_forward_adds_the_symbols_edges_into_zeros_in_canonical_order(seed):
    rng = np.random.default_rng(seed)
    model = random_sfssm(rng, max_states=6, ensure_useful=False)
    # one more symbol, last in the alphabet, with no edges
    model = replace(model, alphabet=Alphabet((*model.alphabet.symbols, "idle")),
                    offsets=np.append(model.offsets, model.offsets[-1]))
    alpha = rng.random(model.num_states)
    for k, a in enumerate(model.alphabet.symbols):
        want = np.zeros(model.num_states)
        for e in range(model.offsets[k], model.offsets[k + 1]):
            want[model.dst[e]] += alpha[model.src[e]] * model.prob[e]
        assert model.forward(alpha, a).tobytes() == want.tobytes()
    with pytest.raises(UnknownSymbol):
        model.forward(alpha, "zz")


def test_missing_transition_matrices_default_to_zero():
    model = build_sfssm(Alphabet(("a", "b")), {"a": np.array([[0.5]])}, [1.0], [0.5])
    assert string_probability_fsa(model, ("b",)) == 0.0


# -- string/prefix probabilities -------------------------------------------

def test_string_probabilities_match_hand_products(fig1a, fig1b):
    assert string_probability_fsa(fig1a, ("a",)) == pytest.approx(0.1, abs=1e-15)
    assert string_probability_fsa(fig1a, ("a", "a", "b")) == 0.0
    assert string_probability_fsa(fig1b, ("a", "b")) == pytest.approx(0.02, abs=1e-15)


def test_prefix_probabilities_match_hand_products(fig1a):
    assert prefix_probability_fsa(fig1a, ()) == 1.0
    assert prefix_probability_fsa(fig1a, ("a", "a")) == pytest.approx(0.7, abs=1e-15)
    assert prefix_probability_fsa(fig1a, ("a", "b")) == pytest.approx(0.2, abs=1e-15)


# -- reachability ------------------------------------------------------------

def test_accessible_covers_whole_graph(fig1a, fig1b):
    assert accessible(fig1a) == {0, 1, 2}
    assert accessible(fig1b) == {0, 1, 2}


def test_accessible_without_edges_is_just_the_start():
    model = build_sfssm(Alphabet(("a",)),
                        {"a": np.array([[0.0, 0.0], [0.0, 0.0]])},
                        [1.0, 0.0], [1.0, 1.0])
    assert accessible(model) == {0}


def test_coaccessible_excludes_trapped_state(fig1a, fig1b):
    assert coaccessible(fig1a) == {0, 1}  # state b never reaches termination
    assert coaccessible(fig1b) == {0, 1, 2}


def test_coaccessible_empty_when_nothing_terminates():
    assert coaccessible(all_zero_term_model()) == frozenset()


# -- tightness decision -------------------------------------------------------

def test_decide_tight_flags_leaky_model(fig1a):
    verdict = decide_tight(fig1a)
    assert verdict.is_non_tight
    assert verdict.witness_name == "b"
    assert verdict.leaked_mass == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_decide_tight_accepts_fixed_model(fig1b):
    assert decide_tight(fig1b).is_tight


def test_decide_tight_trivial_stopper():
    assert decide_tight(one_state_stopper()).is_tight


def test_decide_tight_initial_mass_on_dead_state():
    # mass placed on a state that cannot stop is itself the witness
    model = build_sfssm(Alphabet(("a",)),
                        {"a": np.array([[0.0, 0.0], [0.0, 1.0]])},
                        [0.5, 0.5], [1.0, 0.0])
    verdict = decide_tight(model)
    assert verdict.is_non_tight
    assert verdict.witness_state == 1
    assert verdict.leaked_mass == pytest.approx(0.5, abs=1e-12)


def test_decide_tight_needs_no_solve_for_a_tight_model(fig1b, monkeypatch):
    monkeypatch.setattr(sfssm, "solve_linear", None)
    assert decide_tight(fig1b).is_tight


def test_solve_tightness_matches_decide_tight_and_the_solve(fig1a, fig1b):
    for model in (fig1a, fig1b):
        verdict, termination = solve_tightness(model)
        assert verdict == decide_tight(model)
        assert termination == termination_probability(trim(model))


def test_solve_tightness_without_useful_states():
    verdict, termination = solve_tightness(all_zero_term_model())
    assert verdict.is_non_tight and verdict.leaked_mass == 1.0
    assert termination == 0.0


@pytest.mark.parametrize("loop, stop, want", [
    # rows rounded short of 1 by 9e-10 over an expected 1,000 steps
    (0.999, 0.0009999991, 0.9999991),
    # 1 - p is off by 8e-8 relative in floats: no rounding of the file
    (0.99999999999, 1e-11, 0.9999999172596311),
])
def test_solve_tightness_allows_the_shortfall_of_rounded_rows(loop, stop, want):
    model = build_sfssm(Alphabet(("a",)), {"a": np.array([[loop]])}, [1.0], [stop])
    verdict, termination = solve_tightness(model)
    assert verdict.is_tight
    assert termination == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_the_assembled_identity_minus_sum_has_the_bits_of_eye_minus_transition_sum(seed):
    model = random_sfssm(np.random.default_rng(7000 + seed), max_states=6, max_symbols=4)
    q = model.num_states
    assert sfssm._identity_minus_sum(model).tobytes() == (np.eye(q) - model.transition_sum).tobytes()


def test_the_random_models_above_share_edge_pairs_across_symbols():
    # the bit test matters where several symbols add into one (src, dst) cell
    shared = 0
    for seed in range(40):
        model = random_sfssm(np.random.default_rng(7000 + seed), max_states=6, max_symbols=4)
        shared += len(model.src) - len(set(zip(model.src.tolist(), model.dst.tolist())))
    assert shared >= 20


def test_solve_tightness_builds_no_transition_sum(monkeypatch):
    # rows rounded short of 1, so the shortfall solve runs after the first one
    model = build_sfssm(Alphabet(("a", "b")), {"a": np.array([[0.5, 0.25], [0.0, 0.5]]),
                                               "b": np.array([[0.249, 0.0], [0.0, 0.499]])},
                        [1.0, 0.0], [0.0009999991, 0.0009999991])
    solved, trimmed = [], []
    monkeypatch.setattr(sfssm, "solve_linear", lambda a, b: solved.append(a) or solve_linear(a, b))
    monkeypatch.setattr(sfssm, "termination_probability",
                        lambda m: trimmed.append(m) or termination_probability(m))
    verdict, _ = solve_tightness(model)
    assert verdict.is_tight and len(solved) == 2 and len(trimmed) == 1
    assert "transition_sum" not in vars(trimmed[0])


def test_solve_tightness_rejects_a_tight_verdict_far_below_one(fig1b, monkeypatch):
    monkeypatch.setattr(sfssm, "termination_probability", lambda model: 0.99999)
    with pytest.raises(TerminationShortfall, match="0.99999"):
        solve_tightness(fig1b)


# -- trimming ------------------------------------------------------------------

def test_trim_drops_trapped_state(fig1a):
    sub = trim(fig1a)
    assert isinstance(sub, Sfssm) and fig1a.state_map is None
    assert sub.names == ("BOS", "a")
    assert sub.state_map == (0, 1)
    np.testing.assert_array_equal(sub.init, [1.0, 0.0])
    np.testing.assert_array_equal(sub.term, [0.0, 0.1])
    np.testing.assert_array_equal(dense_transitions(sub, "a"), [[0.0, 1.0], [0.0, 0.7]])


def test_trim_is_identity_on_clean_model(fig1b):
    sub = trim(fig1b)
    assert sub.state_map == (0, 1, 2)
    np.testing.assert_array_equal(sub.transition_sum, fig1b.transition_sum)


def test_trim_rejects_hopeless_model():
    with pytest.raises(NoUsefulStates):
        trim(all_zero_term_model())


@pytest.mark.parametrize("seed", range(25))
def test_trim_preserves_string_probabilities(seed):
    rng = np.random.default_rng(1000 + seed)
    model = random_sfssm(rng, max_states=6, max_symbols=3)
    sub = trim(model)
    row_mass = sub.transition_sum.sum(axis=1) + np.asarray(sub.term)
    assert (row_mass <= 1.0 + 1e-9).all()
    assert set(sub.state_map) <= set(range(model.num_states))
    for x in strings_up_to(model.alphabet.symbols, 6):
        assert string_probability_fsa(sub, x) == pytest.approx(
            string_probability_fsa(model, x), abs=1e-12)


# -- termination probability ---------------------------------------------------

def test_termination_probability_of_leaky_model(fig1a):
    assert termination_probability(trim(fig1a)) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_termination_probability_of_tight_model(fig1b):
    assert termination_probability(trim(fig1b)) == pytest.approx(1.0, abs=1e-9)


def test_termination_probability_geometric_half():
    model = build_sfssm(Alphabet(("a",)), {"a": np.array([[0.5]])}, [1.0], [0.5])
    assert termination_probability(trim(model)) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_of_trimmed_models(fig1a, fig1b):
    for model, radius in ((fig1a, 0.7), (fig1b, 0.9)):
        estimate = spectral_radius_estimate(trim(model).transition_sum).estimate
        assert estimate == pytest.approx(radius, abs=1e-9)


def test_spectral_radius_of_untrimmed_leaky_model_is_one(fig1a):
    # the trapped state b keeps its mass forever
    assert spectral_radius_estimate(fig1a.transition_sum).estimate == pytest.approx(1.0, abs=1e-9)


# -- randomized cross-checks ---------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_verdict_consistency_and_neumann_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    model = random_sfssm(rng)
    sub = trim(model)

    # graph decision vs exact matrix formula
    reached = termination_probability(sub)
    if decide_tight(model).is_tight:
        assert reached == pytest.approx(1.0, abs=1e-9)
    else:
        assert reached < 1.0 - 1e-9

    # finite-horizon mass vs Neumann partial sum
    horizon = 8
    brute = sum(string_probability_fsa(model, x)
                for x in strings_up_to(model.alphabet.symbols, horizon))
    neumann = float(sub.init @ neumann_partial_sum(sub.transition_sum, np.asarray(sub.term), horizon))
    assert brute == pytest.approx(neumann, abs=1e-9)

    assert spectral_radius_estimate(sub.transition_sum).estimate < 1.0


# -- n-gram estimation ----------------------------------------------------------

def test_mle_bigram_single_string():
    model = mle_ngram([("a", "b")], 2)
    assert model.names == ("BOS", "a", "b")
    assert dense_transitions(model, "a")[0, 1] == 1.0
    assert dense_transitions(model, "b")[1, 2] == 1.0
    np.testing.assert_array_equal(model.term, [0.0, 0.0, 1.0])
    assert decide_tight(model).is_tight


def test_mle_bigram_empty_string_corpus():
    model = mle_ngram([()], 2)
    assert model.num_states == 1
    np.testing.assert_array_equal(model.term, [1.0])
    assert decide_tight(model).is_tight


def test_mle_bigram_event_counts():
    model = mle_ngram([("a",), ("a", "a")], 2)
    a_state = model.names.index("a")
    assert dense_transitions(model, "a")[a_state, a_state] == pytest.approx(1.0 / 3.0)
    assert model.term[a_state] == pytest.approx(2.0 / 3.0)
    assert decide_tight(model).is_tight
    assert termination_probability(trim(model)) == pytest.approx(1.0, abs=1e-9)


def test_mle_unigram_collapses_to_single_state():
    model = mle_ngram([("a", "b", "a")], 1)
    assert model.num_states == 1
    assert dense_transitions(model, "a")[0, 0] == pytest.approx(0.5)
    assert dense_transitions(model, "b")[0, 0] == pytest.approx(0.25)
    assert model.term[0] == pytest.approx(0.25)


def test_mle_trigram_histories():
    model = mle_ngram([("a", "b"), ("a", "b")], 3)
    assert "BOS,a" in model.names
    assert decide_tight(model).is_tight


def test_mle_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        mle_ngram([], 2)


def test_mle_rejects_reserved_token():
    with pytest.raises(ValueError):
        mle_ngram([("EOS",)], 2)


def test_mle_rejects_order_zero():
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        mle_ngram([("a",)], 0)


def test_mle_rejects_the_start_placeholder_token():
    with pytest.raises(ValueError, match="reserved start placeholder"):
        mle_ngram([("a", "\x00BOS")], 2)


def test_mle_falls_back_to_generic_names_when_joined_histories_collide():
    # "a,b" then "c" and "a" then "b,c" both join to the name "a,b,c"
    model = mle_ngram([("a,b", "c"), ("a", "b,c")], 3)
    assert model.names == ("q0", "q1", "q2", "q3", "q4")
    assert decide_tight(model).is_tight


COMMA_TOKENS = ("a", "b", "a,b", ",", "b,", "c")


def comma_corpus(rng, max_strings, max_len):
    """Seeded strings of 0 to ``max_len`` tokens, some holding commas."""
    return [tuple(COMMA_TOKENS[k] for k in rng.integers(0, len(COMMA_TOKENS), size=n))
            for n in rng.integers(0, max_len + 1, size=int(rng.integers(1, max_strings)))]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_mle_reads_a_one_shot_generator_as_it_reads_the_list(seed, order):
    corpus = comma_corpus(np.random.default_rng(4000 + seed), max_strings=40, max_len=6)
    listed = mle_ngram(corpus, order)
    streamed = mle_ngram((x for x in corpus), order)
    assert write_model(streamed) == write_model(listed)
    assert streamed.names == listed.names


def reference_mle(corpus, order):
    """The n-gram estimate by one loop per token: counts per history, then
    ``count / total`` in Python integers, states in order of first use."""
    counts = defaultdict(Counter)
    for x in corpus:
        history = ("\x00BOS",) * (order - 1)
        for event in (*x, None):
            counts[history][event] += 1
            history = (*history, event)[1:] if order > 1 else ()
    index = {h: i for i, h in enumerate(counts)}
    alphabet = Alphabet(tuple(sorted({t for x in corpus for t in x})))
    edges, term = [], np.zeros(len(index))
    for h, events in counts.items():
        total = sum(events.values())
        for event, c in events.items():
            if event is None:
                term[index[h]] = c / total
            else:
                nxt = (*h, event)[1:] if order > 1 else ()
                edges.append((alphabet.index(event), index[h], index[nxt], c / total))
    names = tuple(",".join("BOS" if p == "\x00BOS" else p for p in h) or "BOS" for h in counts)
    if len(set(names)) != len(names):
        names = tuple(f"q{i}" for i in range(len(names)))
    return _from_edges(alphabet, np.array(edges).reshape(-1, 4).T, np.eye(1, len(index))[0],
                       term, names)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_mle_matches_the_per_token_loop_bit_for_bit(seed, order):
    corpus = comma_corpus(np.random.default_rng(4100 + seed), max_strings=200, max_len=8)
    model, expected = mle_ngram(corpus, order), reference_mle(corpus, order)
    assert write_model(model) == write_model(expected)
    assert model.names == expected.names


@pytest.mark.parametrize("corpus, error, message", [
    ([], EmptyCorpus, "corpus contains no strings"),
    ([("a",), ("EOS",)], ValueError, "reserved end-of-sequence token 'EOS'"),
    ([("a", "\x00BOS")], ValueError, "reserved start placeholder"),
], ids=["empty", "eos", "start-placeholder"])
@pytest.mark.parametrize("form", [list, iter])
def test_mle_errors_are_the_same_on_a_one_shot_iterator(corpus, error, message, form):
    with pytest.raises(error, match=message):
        mle_ngram(form(corpus), 2)


def test_mle_rejects_order_zero_before_drawing_a_string():
    drawn = []

    def corpus():
        drawn.append(1)
        yield ("a",)
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        mle_ngram(corpus(), 0)
    assert drawn == []


def test_mle_memory_is_flat_in_corpus_length():
    def corpus(lines):   # fresh token objects on every line, as a file's lines give
        rng = random.Random(11)
        for _ in range(lines):
            # a tuple of a list, as corpus_strings makes: CPython's tuple() of a
            # generator allocates 10 slots and shrinks them, so each line's tuple
            # ends in the free list for its own size (up to 2,000 a size), and
            # those traced tuples grew the peak with the corpus's length
            yield tuple([f"t{rng.randrange(50)}" for _ in range(rng.randrange(9))])
    peaks = []
    for lines in (10_000, 40_000):
        # a full collection empties those free lists, and one that fell inside
        # the window made the peaks depend on the tests run before this one
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            mle_ngram(corpus(lines), 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            gc.enable()
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("seed", range(30))
def test_mle_is_always_tight(seed):
    rng = np.random.default_rng(3000 + seed)
    corpus = random_corpus(rng)
    order = int(rng.integers(1, 4))
    model = mle_ngram(corpus, order)
    assert decide_tight(model).is_tight
    assert termination_probability(trim(model)) == pytest.approx(1.0, abs=1e-9)
    assert useful_states(model) == accessible(model)
