"""The columnar loader and validator against the item-by-item reference.

``helpers.reference_model_from_dict`` and ``helpers.reference_find_violations``
build and check one Variable or Factor at a time.  The loader reads whole
fields instead; a loaded model must equal the reference's down to each
value's type and bits, and an invalid one must get the same violations in
the same order.
"""
import copy
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from gbpkit import (
    Factor,
    InvalidModelError,
    LinearGaussianModel,
    Schedule,
    Variable,
    build_factor_graph,
    certify,
    dense_posterior,
    find_violations,
    generate_model,
    load_model,
    run,
    save_model,
    simulate,
    with_observations,
)
from gbpkit import model as model_module
from gbpkit.generate import KINDS
from gbpkit.model import dumps_model, loads_model, model_from_dict

import helpers

HUGE = 10**400


def _hex_or_value(x):
    return (type(x), x.hex() if type(x) is float else x)


def _typed(model: LinearGaussianModel):
    """Every id and value with its type, floats by their bits, coefficients in order."""
    return (
        [(v.id, _hex_or_value(v.prior_var)) for v in model.variables],
        [(f.id, [(k, _hex_or_value(c)) for k, c in f.coeffs.items()],
          _hex_or_value(f.noise_var), _hex_or_value(f.obs)) for f in model.factors],
    )


def _same_columns(a, b):
    assert a.variable_ids == b.variable_ids and a.factor_ids == b.factor_ids
    for name in ("prior_var", "noise_var", "obs", "edge_factor", "edge_var", "edge_coeff"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), name


def _outcome(parse, data):
    try:
        return "model", parse(data)
    except InvalidModelError as err:
        return "invalid", err.violations


def _assert_same_load(text: str):
    loaded = loads_model(text)
    reference = helpers.reference_model_from_dict(json.loads(text))
    assert loaded == reference
    assert _typed(loaded) == _typed(reference)
    _same_columns(loaded.columns, helpers.reference_columns(reference))
    return loaded


class TestLoadedModels:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_files(self, kind, seed, tmp_path):
        path = tmp_path / "model.json"
        save_model(generate_model(kind, 60, seed), path)
        loaded = _assert_same_load(path.read_text())
        assert dumps_model(loaded) == path.read_text()
        assert load_model(path) == generate_model(kind, 60, seed)

    def test_hand_written_file(self):
        # Coefficients out of canonical order, ints, and ids outside ASCII.
        text = json.dumps({
            "variables": [{"id": "ξ1", "prior_var": 2}, {"id": "x2", "prior_var": 0.5},
                          {"prior_var": 3, "id": "日本"}],
            "factors": [
                {"id": "f1", "coeffs": {"日本": -1, "ξ1": 0.25, "x2": 3}, "noise_var": 1,
                 "obs": 0},
                {"obs": -2.5, "noise_var": 0.1, "coeffs": {"x2": 2 ** 53 + 1}, "id": "φ"},
            ],
        }, ensure_ascii=False, indent=2) + "\n"
        loaded = _assert_same_load(text)
        assert list(loaded.factors[0].coeffs) == ["日本", "ξ1", "x2"]
        assert type(loaded.variables[0].prior_var) is int
        assert loaded.columns.edge_var.tolist() == [0, 1, 2, 1]
        # A file written by save_model round-trips byte for byte.
        saved = dumps_model(loaded)
        assert dumps_model(loads_model(saved)) == saved

    @pytest.mark.parametrize("text, key", [
        ('{"variables": [], "factors": [], "variables": []}', "variables"),
        ('{"variables": [{"id": "x1", "prior_var": 1.0}], "factors": [{"id": "f1", "coeffs": '
         '{"x1": 1.0, "x2": 2.0, "x1": 3.0}, "noise_var": 1.0, "obs": 0.0}]}', "x1"),
        ('{"variables": [{"id": "x1", "prior_var": 1.0, "prior_var": 1.0, "id": "x2"}], '
         '"factors": []}', "prior_var"),
    ])
    def test_duplicate_key_names_the_first_repeat(self, text, key):
        with pytest.raises(InvalidModelError) as refused:
            loads_model(text)
        assert refused.value.violations == [f"duplicate key {key!r} in object"]

    def test_a_file_without_repeats_is_parsed_without_the_hook(self, monkeypatch):
        def hook(pairs):
            raise AssertionError("the duplicate-key hook ran")

        monkeypatch.setattr(model_module, "_reject_duplicate_keys", hook)
        model = generate_model("random-loopy", 300, 7)
        assert loads_model(dumps_model(model)) == model
        # A file refused for its shape is parsed again with the hook.
        with pytest.raises(AssertionError, match="hook ran"):
            loads_model(dumps_model(model).replace('"prior_var"', '"prior"', 1))
        # An id with a colon leaves the colon count above the key count: the hook parse runs.
        with pytest.raises(AssertionError, match="hook ran"):
            loads_model(dumps_model(model).replace('"x1"', '"x:1"'))
        with pytest.raises(AssertionError, match="hook ran"):
            loads_model('{"variables": [{"id": "x:1"}], "factors": []}')

    def test_a_file_refused_for_its_shape_names_the_item(self):
        text = dumps_model(generate_model("random-loopy", 300, 7))
        with pytest.raises(InvalidModelError) as refused:
            loads_model(text.replace('"prior_var"', '"prior"', 1))
        assert refused.value.violations == ["variables[0]: expected keys id, prior_var"]

    def test_empty_model(self):
        loaded = _assert_same_load('{"variables": [], "factors": []}')
        assert loaded.variables == () and loaded.factors == ()


class TestLazyItems:
    def test_pipeline_builds_no_items(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(generate_model("single-loop-plus-forest", 40, 2), path)
        model = load_model(path)
        graph = build_factor_graph(model)
        run(graph, model)
        certify(graph, model).walk_summability
        dense_posterior(model)
        simulate(model, Schedule.synchronous())
        assert "variables" not in vars(model) and "factors" not in vars(model)

    def test_with_observations_builds_no_items(self, loop_model):
        swapped = with_observations(loop_model, {"f2": 5})
        assert "factors" not in vars(swapped)
        assert swapped.factors == tuple(
            Factor(f.id, f.coeffs, f.noise_var, 5.0 if f.id == "f2" else f.obs)
            for f in loop_model.factors)
        assert type(swapped.factors[1].obs) is float
        assert swapped.variables == loop_model.variables


# --- violations: a property over mutated model dicts ------------------------

BAD_VALUES = [True, False, "1.0", None, math.nan, math.inf, -math.inf, HUGE, -HUGE,
              0, 0.0, -0.0, -1.0, 2, 1e308, [], {}]
BAD_IDS = ["", "x1", "f1", None, 3, True, "x9"]


def _base(n_vars: int, n_factors: int) -> dict:
    return {
        "variables": [{"id": f"x{k + 1}", "prior_var": 1.0 + k} for k in range(n_vars)],
        "factors": [{"id": f"f{k + 1}",
                     "coeffs": {f"x{(k + j) % n_vars + 1}": 0.5 + j for j in range(2)},
                     "noise_var": 0.5, "obs": float(k)} for k in range(n_factors)],
    }


class _Record(dict):
    """A dict subclass, as a model dict built in Python may hold."""


@st.composite
def mutated_dicts(draw):
    """A valid model dict with a few bad values, then perhaps a bad shape."""
    data = _base(draw(st.integers(1, 4)), draw(st.integers(0, 4)))
    variables, factors = data["variables"], data["factors"]
    for _ in range(draw(st.integers(0, 4))):
        where = draw(st.sampled_from(["variable", "factor", "coeff"] if factors else ["variable"]))
        if where == "variable":
            item = draw(st.sampled_from(variables))
            key = draw(st.sampled_from(["id", "prior_var"]))
            item[key] = draw(st.sampled_from(BAD_IDS if key == "id" else BAD_VALUES))
            continue
        item = draw(st.sampled_from(factors))
        if where == "coeff" and isinstance(item["coeffs"], dict):
            name = draw(st.sampled_from(["x1", "x2", "x9", ""]))
            item["coeffs"][name] = draw(st.sampled_from(BAD_VALUES + [1.5]))
        elif where == "factor":
            key = draw(st.sampled_from(["id", "noise_var", "obs", "coeffs"]))
            if key == "coeffs":
                item[key] = draw(st.sampled_from([[], "x1", None, 1.0, {}]))
            else:
                item[key] = draw(st.sampled_from(BAD_IDS if key == "id" else BAD_VALUES))
    for items in (variables, factors):
        if items and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, len(items) - 1))
            change = draw(st.sampled_from(["none", "drop", "extra", "not-object"]))
            if change == "not-object":
                items[k] = draw(st.sampled_from([[], "x", 1.0, None]))
            elif change == "drop":
                items[k].pop(draw(st.sampled_from(sorted(items[k]))))
            elif change == "extra":
                items[k]["extra"] = 1
    change = draw(st.sampled_from(["none"] * 6 + ["extra", "variables", "factors"]))
    if change == "extra":
        data["unknown"] = 1
    elif change != "none":
        data[change] = draw(st.sampled_from([None, {}, "x", 1]))
    return data


@given(mutated_dicts())
@example(_base(3, 3))
@example({"variables": [{"id": "x1", "prior_var": HUGE}],
          "factors": [{"id": "f1", "coeffs": {"x1": -HUGE}, "noise_var": 1.0, "obs": HUGE}]})
@example({"variables": [{"id": "x1", "prior_var": 1.0}, {"id": "x1", "prior_var": True}],
          "factors": [{"id": "", "coeffs": {"x2": 0.0}, "noise_var": 1.0, "obs": 0.0},
                      {"id": "f1", "coeffs": {"x1": 0, "x2": math.nan}, "noise_var": None,
                       "obs": "0"}]})
# The entries total 2 per variable and 4 per factor, yet one item lacks a
# key and another has an extra one: only the key lookups tell.
@example({"variables": [{"id": "x1"}, {"id": "x2", "prior_var": 1.0, "extra": 1}],
          "factors": []})
@example({"variables": [{"id": "x1", "prior_var": 1.0}],
          "factors": [{"id": "f1", "coeffs": {"x1": 1.0}, "noise_var": 1.0},
                      {"id": "f2", "coeffs": {"x1": 2.0}, "noise_var": 1.0, "obs": 0.0,
                       "extra": 1}]})
@example({"variables": [{"prior_var": 2.0, "id": "x1"}, {"id": "x2", "prior_var": 1.0}],
          "factors": [{"obs": 0.5, "coeffs": {"x2": 1.0, "x1": -1.0}, "id": "f1",
                       "noise_var": 1.0}]})
@example({"variables": [_Record(id="x1", prior_var=1.0)],
          "factors": [_Record(id="f1", coeffs={"x1": 1.0}, noise_var=1.0, obs=0.0),
                      {"id": "f2", "coeffs": {"x1": 2.0}, "noise_var": 1.0, "obs": 0.0}]})
def test_violations_match_the_reference(data):
    expected = _outcome(helpers.reference_model_from_dict, copy.deepcopy(data))
    got = _outcome(model_from_dict, copy.deepcopy(data))
    if expected[0] == "model":
        assert got[0] == "model" and got[1] == expected[1]
        assert _typed(got[1]) == _typed(expected[1])
    else:
        assert got == expected


@given(mutated_dicts())
def test_tuple_built_models_match_the_reference(data):
    def items(name, keys):
        raw = data[name] if isinstance(data[name], list) else []
        return [item for item in raw if isinstance(item, dict) and set(keys) <= set(item)
                and isinstance(item.get("coeffs", {}), dict)]

    variables = tuple(Variable(item["id"], item["prior_var"])
                      for item in items("variables", ["id", "prior_var"]))
    factors = tuple(Factor(item["id"], item["coeffs"], item["noise_var"], item["obs"])
                    for item in items("factors", ["id", "coeffs", "noise_var", "obs"]))
    model = LinearGaussianModel(variables, factors)
    assert find_violations(model) == helpers.reference_find_violations(model)


# --- the fast parse against the hook parse: a property over mutated texts ---

def _colon_id(data: dict, items: list, k: int) -> None:
    """Put a ':' into item k's id, and into the coefficient keys that name it."""
    old = items[k]["id"]
    items[k]["id"] = new = old[:1] + ":" + old[1:]
    for factor in data["factors"]:
        if isinstance(factor, dict) and isinstance(factor.get("coeffs"), dict):
            factor["coeffs"] = {new if key == old else key: c
                                for key, c in factor["coeffs"].items()}


@st.composite
def mutated_texts(draw):
    """A valid model file with a few of: a renamed, missing or extra key, an
    item that is not an object, a ``coeffs`` that is not an object, a ':'
    inside an id, and a repeated key spliced into the text."""
    data = _base(draw(st.integers(1, 4)), draw(st.integers(0, 4)))
    for _ in range(draw(st.integers(0, 3))):
        items = data[draw(st.sampled_from(["variables", "factors"] if data["factors"]
                                          else ["variables"]))]
        k = draw(st.integers(0, len(items) - 1))
        change = draw(st.sampled_from(["rename", "drop", "extra", "not-object", "coeffs",
                                       "colon"]))
        if not isinstance(items[k], dict) or not items[k]:
            continue
        if change in ("rename", "drop"):
            key = draw(st.sampled_from(sorted(items[k])))
            value = items[k].pop(key)
            if change == "rename":
                items[k][draw(st.sampled_from([key[:-1], key.upper(), "id", "obs"]))] = value
        elif change == "extra":
            items[k]["extra"] = 1
        elif change == "not-object":
            items[k] = draw(st.sampled_from([[], "x1", 1.0, None]))
        elif change == "coeffs" and "coeffs" in items[k]:
            items[k]["coeffs"] = draw(st.sampled_from([[], "x1", None, 1.0]))
        elif change == "colon" and isinstance(items[k].get("id"), str):
            _colon_id(data, items, k)
    if draw(st.booleans()):
        data[draw(st.sampled_from(["variables", "factors", "Variables"]))] = \
            data.pop(draw(st.sampled_from(["variables", "factors"])))
    text = json.dumps(data, indent=draw(st.sampled_from([None, 2])))
    if draw(st.booleans()):  # repeat an object's first key, before it
        starts = list(re.finditer(r'\{\s*("[^"]*"): ', text))
        first = draw(st.sampled_from(starts))
        value = draw(st.sampled_from(["1.5", '"x1"', "{}", "[]", "null"]))
        text = text[:first.start() + 1] + f"{first[1]}: {value}, " + text[first.start() + 1:]
    return text


def _text_outcome(load, text: str):
    try:
        fields = load(text).fields
    except InvalidModelError as err:
        return "invalid", err.violations
    return "model", fields, repr(fields)  # repr tells ints from floats and keeps coeffs' order


def _hook_parse(text: str):
    """The loader with every object through the duplicate-key hook."""
    try:
        data = json.loads(text, object_pairs_hook=model_module._reject_duplicate_keys)
    except ValueError as err:
        raise InvalidModelError([str(err)]) from err
    return model_from_dict(data)


@given(mutated_texts())
@example('{"variables": [{"id": "x1", "prior": 1.0}], "factors": []}')
@example('{"variables": [{"id": "x:1", "prior_var": 1.0}], "factors": [], "factors": []}')
@example('{"variables": [{"id": "x1", "id": "x1"}], "factors": []}')
def test_a_refused_shape_gives_the_violations_of_the_hook_parse(text):
    assert _text_outcome(loads_model, text) == _text_outcome(_hook_parse, text)


def test_huge_ints_are_reported_not_raised():
    model = LinearGaussianModel((Variable("x1", HUGE),), (Factor("f1", {"x1": HUGE}, HUGE, -HUGE),))
    assert find_violations(model) == [
        "variable 'x1': prior_var must be a positive finite number",
        "factor 'f1': noise_var must be a positive finite number",
        "factor 'f1': obs must be a finite number",
        "factor 'f1': coefficient for 'x1' must be a finite number",
    ]
    # The largest ints below the float range still pass.
    assert find_violations(LinearGaussianModel((Variable("x1", 2**1023),), ())) == []


def test_real_numbers_of_any_type_validate_and_save_as_floats(tmp_path):
    """A number is a real number other than a bool, finite as a float, as
    ``with_observations`` and explicit init take it: numpy scalars and
    fractions validate, and a saved model loads back to the same arrays."""
    model = LinearGaussianModel(
        (Variable("x1", np.float32(2.0)), Variable("x2", Fraction(1, 3))),
        (Factor("f1", {"x1": np.int64(3), "x2": Fraction(-2, 7)}, np.float32(0.1),
                np.float32(-1.5)),
         Factor("f2", {"x2": 1}, Fraction(5, 3), np.int64(4))))
    assert find_violations(model) == helpers.reference_find_violations(model) == []
    path = tmp_path / "model.json"
    save_model(model, path)
    _same_columns(load_model(path).columns, model.columns)


@pytest.mark.parametrize("value", [True, np.True_, "1.0", None, math.nan, math.inf, -math.inf,
                                   HUGE, np.float32(math.inf), Fraction(HUGE, 3)])
def test_non_numbers_keep_their_messages(value):
    model = LinearGaussianModel((Variable("x1", value),), (Factor("f1", {"x1": value}, value, value),))
    assert find_violations(model) == helpers.reference_find_violations(model) == [
        "variable 'x1': prior_var must be a positive finite number",
        "factor 'f1': noise_var must be a positive finite number",
        "factor 'f1': obs must be a finite number",
        "factor 'f1': coefficient for 'x1' must be a finite number",
    ]
