import cmath

import numpy as np
import pytest

from chargeplane import (
    GAUSSIAN_WELL_POTENTIAL,
    R2_EXP_POTENTIAL,
    ConfigError,
    PotentialModel,
    PotentialTerm,
    eval_potential,
    parse_potential,
)


class TestEval:
    def test_r2_exp_at_zero(self):
        assert eval_potential(R2_EXP_POTENTIAL, 0.0) == 0.0

    def test_r2_exp_at_one(self):
        assert eval_potential(R2_EXP_POTENTIAL, 1.0) == pytest.approx(7.5 * np.exp(-1.0), rel=1e-14)

    def test_r2_exp_at_i(self):
        # hand oracle: 7.5 * i^2 * exp(-i) = -7.5 (cos 1 - i sin 1)
        expect = -7.5 * (cmath.cos(1.0) - 1j * cmath.sin(1.0))
        got = eval_potential(R2_EXP_POTENTIAL, 1j)
        assert got == pytest.approx(expect, rel=1e-14)

    def test_gaussian_well_at_half(self):
        # two-term arithmetic: 5 - 8 exp(-1/20)
        expect = 5.0 - 8.0 * np.exp(-1.0 / 20.0)
        assert eval_potential(GAUSSIAN_WELL_POTENTIAL, 0.5) == pytest.approx(expect, rel=1e-14)

    def test_empty_model_is_zero(self):
        assert eval_potential(PotentialModel(), 3.7 + 1j) == 0.0

    def test_array_input(self):
        r = np.array([0.5, 1.0, 2.0])
        got = eval_potential(R2_EXP_POTENTIAL, r)
        assert np.allclose(got, 7.5 * r**2 * np.exp(-r))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            eval_potential(R2_EXP_POTENTIAL, np.inf)
        with pytest.raises(ConfigError):
            eval_potential(R2_EXP_POTENTIAL, complex(np.nan, 0))


class TestProperties:
    rng = np.random.default_rng(42)

    def test_real_axis_agreement(self):
        for r in self.rng.uniform(0, 10, size=20):
            assert eval_potential(GAUSSIAN_WELL_POTENTIAL, complex(r, 0.0)) == pytest.approx(
                eval_potential(GAUSSIAN_WELL_POTENTIAL, float(r)), rel=1e-15
            )

    def test_schwarz_reflection(self):
        for _ in range(20):
            r = complex(self.rng.uniform(-3, 3), self.rng.uniform(-3, 3))
            for model in (R2_EXP_POTENTIAL, GAUSSIAN_WELL_POTENTIAL):
                assert eval_potential(model, r.conjugate()) == pytest.approx(
                    eval_potential(model, r).conjugate(), rel=1e-13, abs=1e-13
                )

    def test_linearity_exact(self):
        t1, t2 = GAUSSIAN_WELL_POTENTIAL.terms
        r = 1.3 - 0.4j
        whole = eval_potential(GAUSSIAN_WELL_POTENTIAL, r)
        parts = eval_potential(PotentialModel((t1,)), r) + eval_potential(PotentialModel((t2,)), r)
        assert whole == parts


class TestParse:
    def test_r2_exp_fragment(self):
        model = parse_potential([{"c": 7.5, "p": 2, "b": 1, "s": 0, "q": 1}])
        r = 1.7
        assert eval_potential(model, r) == pytest.approx(7.5 * r**2 * np.exp(-r), rel=1e-14)

    def test_empty_fragment(self):
        assert eval_potential(parse_potential([]), 2.0) == 0.0
        assert eval_potential(parse_potential(None), 2.0) == 0.0

    @pytest.mark.parametrize(
        "frag",
        [
            [{"c": 1.0, "q": 3}],
            [{"c": 1.0, "b": -0.5}],
            [{"c": 1.0, "p": -2}],
            [{"c": 1.0, "extra": 1}],
            [{"p": 2}],
            ["not a dict"],
            {"c": 1.0},
        ],
    )
    def test_bad_fragments(self, frag):
        with pytest.raises(ConfigError):
            parse_potential(frag)

    def test_error_names_offending_term(self):
        with pytest.raises(ConfigError, match="term 1"):
            parse_potential([{"c": 1.0}, {"c": 2.0, "q": 5}])


class TestTermValidation:
    def test_q_restricted(self):
        with pytest.raises(ConfigError):
            PotentialTerm(c=1.0, q=3)

    def test_b_nonnegative(self):
        with pytest.raises(ConfigError):
            PotentialTerm(c=1.0, b=-1.0)
