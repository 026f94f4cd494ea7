"""Verdict construction rules and serialization."""

import pytest

from seqtight import Certificate, TightnessVerdict


def test_non_tight_requires_witness_or_leak():
    with pytest.raises(ValueError):
        TightnessVerdict(kind="non-tight")
    with pytest.raises(ValueError):
        TightnessVerdict(kind="non-tight", leaked_mass=0.0)
    assert TightnessVerdict.non_tight(witness_state=2).is_non_tight
    assert TightnessVerdict.non_tight(leaked_mass=0.25).is_non_tight


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TightnessVerdict(kind="maybe")


def test_to_dict_round_trips_fields():
    verdict = TightnessVerdict.non_tight(witness_state=1, witness_name="b",
                                         leaked_mass=2 / 3, detail="stuck")
    data = verdict.to_dict()
    assert data["kind"] == "non-tight"
    assert data["witness_name"] == "b"
    assert data["leaked_mass"] == pytest.approx(2 / 3)
    assert "certificate" not in data

    tight = TightnessVerdict.tight(Certificate.CO_ACCESSIBILITY)
    assert tight.to_dict()["certificate"] == "co-accessibility"


def test_describe_is_readable():
    assert "witness state b" in TightnessVerdict.non_tight(
        witness_state=2, witness_name="b", leaked_mass=0.5).describe()
    assert "tight" in TightnessVerdict.tight(Certificate.UNIFORM_EOS_BOUND).describe()
    assert "inconclusive" in TightnessVerdict.inconclusive("not enough steps").describe()
    assert TightnessVerdict.non_tight(witness_state=2).describe() == "non-tight (witness state #2)"
