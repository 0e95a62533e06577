"""Tests for the alternative confidence functions (Eq. 2-3 family)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONFIDENCE_FUNCTIONS,
    Anchor,
    LocalizerConfig,
    NomLocLocalizer,
    confidence_factor_power,
    confidence_factor_rational,
    pairwise_constraints_batch,
)
from repro.geometry import Point, Polygon

ratios = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestEq23Properties:
    """Every registered f must satisfy the paper's Eqs. 2-3."""

    @pytest.mark.parametrize("name", sorted(CONFIDENCE_FUNCTIONS))
    def test_f_of_one_is_half(self, name):
        fn = CONFIDENCE_FUNCTIONS[name]
        assert fn(1.0) == pytest.approx(0.5)

    @given(ratios)
    @settings(max_examples=100)
    def test_reciprocal_identity_all(self, x):
        for fn in CONFIDENCE_FUNCTIONS.values():
            assert fn(x) + fn(1.0 / x) == pytest.approx(1.0, abs=1e-9)

    @given(ratios)
    @settings(max_examples=60)
    def test_nonnegative_all(self, x):
        for fn in CONFIDENCE_FUNCTIONS.values():
            assert fn(x) >= 0.0

    @given(ratios, ratios)
    @settings(max_examples=60)
    def test_monotone_all(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        for fn in CONFIDENCE_FUNCTIONS.values():
            assert fn(lo) >= fn(hi) - 1e-12

    def test_positive_domain(self):
        for fn in (confidence_factor_rational, confidence_factor_power):
            with pytest.raises(ValueError):
                fn(0.0)

    def test_power_exponent_validation(self):
        with pytest.raises(ValueError):
            confidence_factor_power(1.0, k=0.0)

    def test_power_sharper_than_rational(self):
        """Larger k decides near-ties faster."""
        x = 0.8
        assert confidence_factor_power(x, 2.0) > confidence_factor_rational(x)


class TestConfigIntegration:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            LocalizerConfig(confidence_fn="sigmoid")

    def test_resolve(self):
        cfg = LocalizerConfig(confidence_fn="rational")
        assert cfg.resolve_confidence_fn() is confidence_factor_rational

    def test_weights_differ_between_functions(self):
        anchors = [
            Anchor("A", Point(0, 0), 4.0),
            Anchor("B", Point(10, 0), 1.0),
        ]
        [(paper_rows, _)] = pairwise_constraints_batch([anchors])
        [(rational_rows, _)] = pairwise_constraints_batch(
            [anchors], confidence_fn=confidence_factor_rational
        )
        w_paper = paper_rows[0].weight
        w_rational = rational_rows[0].weight
        assert w_paper != w_rational

    def test_localizer_runs_with_each_function(self):
        square = Polygon.rectangle(0, 0, 10, 10)
        corners = [Point(0.5, 0.5), Point(9.5, 0.5), Point(9.5, 9.5), Point(0.5, 9.5)]
        obj = Point(3, 7)
        anchors = [
            Anchor(f"A{i}", p, 1.0 / (0.1 + obj.distance_to(p)) ** 2)
            for i, p in enumerate(corners)
        ]
        estimates = {}
        for name in CONFIDENCE_FUNCTIONS:
            loc = NomLocLocalizer(square, LocalizerConfig(confidence_fn=name))
            est = loc.locate(anchors)
            assert square.contains(est.position)
            estimates[name] = est.position
        # With consistent judgements, the feasible region (and centre) is
        # the same regardless of weighting.
        assert estimates["paper"].almost_equals(estimates["rational"], tol=1e-6)
