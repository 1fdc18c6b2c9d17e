"""Every field of the engine's reports, at full precision, against the
pinned corpus ``data/reports_full.json``.

The corpus stores each float as ``float.hex``.  The engine is compared to
it at workers 1 and 3, to 1e-13 relative with NaN in the same places: that
admits last-bit differences between numpy builds and catches any change
beyond rounding.  Regenerating the corpus (``python
tests/data/make_reports_full.py``) is a deliberate act that changes what
"no result changed" means.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from poolshrink.cli import parse_estimators, parse_model
from poolshrink.estimators import EstimatorConfig
from poolshrink.model import scalar_spec
from poolshrink.risksim import SimPlan, preset_estimators, simulate_many, table1_preset

DATA = Path(__file__).parent / "data"
CORPUS = DATA / "reports_full.json"
RTOL = 1e-13


def _phi(f, s):
    """A CLASS1 shrink function that depends on both F and S."""
    return 2.0 * f / (1.0 + f + 0.1 * s)


def _psi(g, s):
    """A CLASS2 second-stage shrink function."""
    return np.minimum(g, 1.5)


def _dense_model() -> dict:
    """The dense p = 20, k = 6 model of the console smoke run, built by the
    same generator calls."""
    rng = np.random.default_rng(0)
    p, k = 20, 6

    def spd(scale):
        w = rng.standard_normal((p, p))
        m = scale * (np.eye(p) + w @ w.T / (2.0 * p))
        return (0.5 * (m + m.T)).tolist()

    V = [spd(0.5 + 0.25 * i) for i in range(k)]
    return {"p": p, "k": k, "n": 20, "sigma2": 1.0, "V": V, "Q": spd(0.5),
            "mu": rng.normal(0.0, 1.0, (k, p)).tolist()}


def corpus_plans() -> dict[str, SimPlan]:
    """The pinned runs, by label."""
    plans = {f"table1 {label}": plan for label, plan in table1_preset(replications=4097, seed=0)}

    hb_doc = json.loads((DATA / "hb_config.json").read_text())
    hb_spec = parse_model(hb_doc["model"])
    hb_configs = parse_estimators(hb_doc["estimators"], hb_spec, default_alpha=0.05)
    plans["hb_config"] = SimPlan(hb_spec, hb_configs, 2049, hb_doc["seed"])

    dense_spec = parse_model(_dense_model())
    plans["dense"] = SimPlan(dense_spec, parse_estimators(None, dense_spec, 0.05), 8192, 0)

    spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, (1.0, -0.5, 0.0, 0.5, 2.0))
    generic = (
        EstimatorConfig(kind="CLASS1", phi=_phi),
        EstimatorConfig(kind="CLASS2", phi=_phi, psi=_psi),
        EstimatorConfig(kind="LINCOMB", d=(0.5, 0.5, 0.0, -1.0, 0.25), phi=_phi),
    )
    plans["generic"] = SimPlan(spec, generic, 3000, 7)

    presets = preset_estimators(spec)
    for reps in (1, 2047, 2049):
        plans[f"reps {reps}"] = SimPlan(spec, presets, reps, 11)
    return plans


def encode(report) -> dict:
    """A report as JSON: floats as ``float.hex``, the rest as they are."""

    def field(value):
        return value.hex() if isinstance(value, float) else value

    fields = {name: field(value) for name, value in vars(report).items() if name != "estimators"}
    fields["estimators"] = [
        {name: field(value) for name, value in vars(risk).items()} for risk in report.estimators
    ]
    return fields


def _floats(encoded: dict) -> dict:
    """The float fields of an encoded report, by path."""
    out = {}
    for name, value in encoded.items():
        if name == "estimators":
            for i, risk in enumerate(value):
                out.update({f"{risk['name']}[{i}].{key}": val for key, val in _floats(risk).items()})
        elif isinstance(value, str) and name != "name":
            out[name] = float.fromhex(value)
    return out


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("workers", [1, 3])
def test_reports_match_the_corpus(corpus, workers):
    plans = corpus_plans()
    assert list(plans) == list(corpus)
    reports = simulate_many(list(plans.values()), workers=workers)
    for (label, expected), report in zip(corpus.items(), reports):
        actual = encode(report)
        exact = {key: val for key, val in actual.items() if not isinstance(val, (str, list))}
        assert exact == {key: expected[key] for key in exact}, label
        assert [r["name"] for r in actual["estimators"]] == [
            r["name"] for r in expected["estimators"]
        ], label
        got, want = _floats(actual), _floats(expected)
        assert list(got) == list(want), label
        np.testing.assert_allclose(
            list(got.values()), list(want.values()), rtol=RTOL, atol=0.0, equal_nan=True,
            err_msg=f"{label}: {list(got)}",
        )


def test_single_replication_has_nan_errors(corpus):
    # At one replication every standard error is undefined.
    floats = _floats(corpus["reps 1"])
    errors = [value for key, value in floats.items() if key.endswith("std_error")]
    assert errors and all(np.isnan(errors))
