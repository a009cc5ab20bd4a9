"""Model types, validation diagnostics, and file round trips."""

import dataclasses
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.errors import ModelFormatError
from beliefpomdp.model import (
    GENERAL_DISCOUNTED,
    STOPPING_TIME,
    VALUE_BOUND_LIMIT,
    Belief,
    PomdpModel,
    fixture_path,
    load_model,
    model_from_dict,
    save_model,
    unit_belief,
    uniform_belief,
    validate_model,
)
from conftest import qd_model, random_model, two_state_general
from oracles import RelaxedBelief


def make(transition=None, discount=0.9, model_kind=GENERAL_DISCOUNTED, num_actions=1):
    return PomdpModel(
        num_states=2,
        num_actions=num_actions,
        num_observations=(2,) * num_actions,
        transition=[transition or [[1.0, 0.0], [0.1, 0.9]]] * num_actions,
        observation=[[[0.8, 0.2], [0.3, 0.7]]] * num_actions,
        linear_cost=[[1.0, 0.0]] * num_actions,
        discount=discount,
        model_kind=model_kind,
    )


class TestValidateModel:
    def test_valid_model_has_empty_report(self):
        assert validate_model(make()) == []

    def test_substochastic_row_is_named_with_magnitude(self):
        report = validate_model(make(transition=[[0.5, 0.4], [0.1, 0.9]]))
        assert len(report) == 1
        v = report[0]
        assert v.where == "transition[1] row 1"
        assert "row sum" in v.message
        assert v.magnitude == pytest.approx(0.1, abs=1e-12)

    def test_discount_one_needs_stopping_kind(self):
        report = validate_model(make(discount=1.0))
        assert any("discount" in str(v) for v in report)
        stopping = make(discount=1.0, model_kind=STOPPING_TIME, num_actions=2)
        assert validate_model(stopping) == []

    def test_stopping_needs_two_actions(self):
        report = validate_model(make(discount=1.0, model_kind=STOPPING_TIME))
        assert any("2 actions" in v.message for v in report)

    def test_negative_entry_reported(self):
        report = validate_model(make(transition=[[1.1, -0.1], [0.1, 0.9]]))
        assert any("negative" in v.message for v in report)

    def test_mismatched_alpha_length(self):
        model = make()
        bad = PomdpModel(
            **{
                **model.to_dict(),
                "nonlinear_cost": NonlinearCostSpec(
                    "entropy", alpha=[1.0, 1.0], beta=[0.0, 0.0]
                ),
            }
        )
        assert any("alpha" in v.message for v in validate_model(bad))

    def test_weight_matrix_of_the_wrong_order(self):
        spec = NonlinearCostSpec("mean_square", weight_matrix=np.eye(3), alpha=[1.0], beta=[0.0])
        report = validate_model(dataclasses.replace(make(), nonlinear_cost=spec))
        assert [(v.where, v.message) for v in report] == [
            ("nonlinear_cost", "weight_matrix is 3x3 for 2 states")
        ]

    def test_non_finite_entries_are_violations(self):
        nan, inf = float("nan"), float("inf")
        model = PomdpModel(
            num_states=2,
            num_actions=1,
            num_observations=(2,),
            transition=[[[nan, 1.0], [0.1, 0.9]]],
            observation=[[[0.8, 0.2], [-inf, 0.7]]],
            linear_cost=[[1.0, nan]],
            discount=nan,
        )
        report = validate_model(model)
        assert [(v.where, v.message) for v in report] == [
            ("transition[1] row 1", "non-finite entry nan"),
            ("observation[1] row 2", "non-finite entry -inf"),
            ("linear_cost[1]", "non-finite entry nan"),
            ("discount", "non-finite discount nan"),
        ]
        assert all(v.magnitude == 0.0 for v in report)

    def test_load_rejects_non_finite_entries(self, tmp_path):
        for key, value in [
            ("transition", [[float("nan"), 1.0], [0.1, 0.9]]),
            ("linear_cost", [float("inf"), 0.0]),
            ("nonlinear_cost", {"family": "entropy", "alpha": [float("nan")] * 2, "beta": [0, 0]}),
        ]:
            doc = make().to_dict()
            doc[key] = value if key == "nonlinear_cost" else [value]
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelFormatError):
                load_model(path)

    @pytest.mark.parametrize("discount, horizon", [(0.9, 10.0), (0.0, 1.0)])
    def test_value_bound_divides_the_cost_bound_by_one_minus_the_discount(
        self, discount, horizon
    ):
        for margin, listed in ((0.99, []), (1.01, ["costs"])):
            c = VALUE_BOUND_LIMIT / horizon * margin
            model = two_state_general(linear=[[c, c], [c, c]], discount=discount)
            assert [v.where for v in validate_model(model)] == listed

    def test_undiscounted_stopping_value_bound_is_twice_the_cost_bound(self):
        for margin, listed in ((0.99, []), (1.01, ["costs"])):
            model = qd_model(delay=VALUE_BOUND_LIMIT / 2 * margin)
            assert [v.where for v in validate_model(model)] == listed

    def test_overflowing_costs_are_a_violation_not_a_warning(self):
        model = two_state_general(linear=[[1e308, 1e308], [1e308, 1e308]], discount=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_model(model)
        message = f"cost bound 1.000e+308 bounds the values by inf, above {VALUE_BOUND_LIMIT:.3e}"
        assert [(v.where, v.message) for v in report] == [("costs", message)]

    @pytest.mark.parametrize(
        "spec",
        [
            dict(family="entropy"),  # no alpha or beta: the cost bound cannot be read
            dict(family="mean_square", alpha=[1.0], beta=[0.0], weight_matrix=[1.0, 2.0, 3.0]),
        ],
    )
    def test_spec_defects_are_listed_without_a_crash(self, spec):
        cost = NonlinearCostSpec(**spec, validate=False)
        report = validate_model(dataclasses.replace(make(), nonlinear_cost=cost))
        assert report and all(v.where == "nonlinear_cost" for v in report)
        if cost.weight_matrix is not None:
            assert [v.message for v in report] == ["mean_square requires a square weight_matrix"]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in fixture_path("linear_x3.json").parent.glob("*.json"))
    )
    def test_every_shipped_fixture_validates(self, name):
        assert validate_model(load_model(fixture_path(name), require_valid=False)) == []

    def test_row_tolerance_accepts_tiny_roundoff(self):
        row = [0.1, 0.9 + 5e-13]
        assert validate_model(make(transition=[[1.0, 0.0], row])) == []


class TestBeliefs:
    def test_unit_belief(self):
        assert unit_belief(1, 2).probs.tolist() == [1.0, 0.0]
        assert unit_belief(2, 3).probs.tolist() == [0.0, 1.0, 0.0]

    def test_unit_belief_out_of_range(self):
        with pytest.raises(ValueError):
            unit_belief(4, 3)
        with pytest.raises(ValueError):
            unit_belief(0, 3)

    def test_uniform_belief(self):
        assert uniform_belief(2).probs.tolist() == [0.5, 0.5]
        np.testing.assert_allclose(uniform_belief(3).probs, 1.0 / 3.0)
        with pytest.raises(ValueError):
            uniform_belief(0)

    def test_belief_invariants(self):
        with pytest.raises(ValueError):
            Belief([0.5, 0.4])
        for bad in ([float("nan"), 0.5], [float("inf"), 0.0], [1.0, float("nan")]):
            with pytest.raises(ValueError, match="non-finite"):
                Belief(bad)
        with pytest.raises(ValueError):
            Belief([1.1, -0.1])
        b = Belief([0.25, 0.75])
        with pytest.raises(ValueError):
            b.probs[0] = 0.5  # frozen storage

    def test_relaxed_belief(self):
        RelaxedBelief([0.0, 2.5])
        with pytest.raises(ValueError):
            RelaxedBelief([0.0, 0.0])
        with pytest.raises(ValueError):
            RelaxedBelief([-0.1, 1.0])
        assert RelaxedBelief([0.0, 0.0], allow_zero=True).total() == 0.0


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        for k in range(20):
            model = random_model(np.random.default_rng(k))
            path = tmp_path / f"m{k}.json"
            save_model(model, path)
            again = load_model(path)
            for a, b in zip(model.transition, again.transition):
                assert np.array_equal(a, b)
            for a, b in zip(model.observation, again.observation):
                assert np.array_equal(a, b)
            for a, b in zip(model.linear_cost, again.linear_cost):
                assert np.array_equal(a, b)
            assert model.discount == again.discount

    def test_unknown_keys_rejected(self):
        doc = make().to_dict()
        doc["extra_field"] = 1
        with pytest.raises(ModelFormatError, match="extra_field"):
            model_from_dict(doc)

    def test_unknown_cost_keys_rejected(self):
        doc = make().to_dict()
        doc["nonlinear_cost"] = {"family": "entropy", "gamma": 1.0}
        with pytest.raises(ModelFormatError, match="gamma"):
            model_from_dict(doc)

    def test_missing_keys_rejected(self):
        doc = make().to_dict()
        del doc["transition"]
        with pytest.raises(ModelFormatError, match="transition"):
            model_from_dict(doc)

    def test_invalid_model_file_rejected_on_load(self, tmp_path):
        model = make(transition=[[0.5, 0.4], [0.1, 0.9]])
        path = tmp_path / "bad.json"
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="row sum"):
            load_model(path)
        assert load_model(path, require_valid=False).num_states == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model(path)

    def test_fixture_script_reproduces_the_shipped_corpus(self, tmp_path, monkeypatch):
        script = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_fixtures", script)
        make_fixtures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_fixtures)
        monkeypatch.setattr(make_fixtures, "OUT", tmp_path)
        make_fixtures.main()
        shipped = fixture_path("quickest_detection_x2.json").parent
        emitted = sorted(path.name for path in tmp_path.iterdir())
        assert emitted == sorted(path.name for path in shipped.glob("*.json"))
        for name in emitted:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_shape_errors_raise_at_construction():
    with pytest.raises(ValueError):
        make(transition=[[0.5, 0.4, 0.1], [0.1, 0.8, 0.1]])
    with pytest.raises(ValueError):
        PomdpModel(
            num_states=1,
            num_actions=1,
            num_observations=(2,),
            transition=[[[1.0]]],
            observation=[[[0.5, 0.5]]],
            linear_cost=[[0.0]],
        )
