"""Command-line interface: config parsing, report emission, determinism
across worker counts, and exit codes."""

import json

import numpy as np
import pytest

from poolshrink.cli import main, parse_estimators, parse_model
from poolshrink.minimax import solve_hb_a
from poolshrink.numerics import QuadratureError

BENCH_MODEL = {
    "p": 5,
    "k": 5,
    "n": 20,
    "sigma2": 2.0,
    "V": [0.1, 0.2, 0.3, 0.4, 0.5],
    "Q": "inv_v1",
    "mu": [0, 0, 0, 0, 0],
}


@pytest.fixture()
def bench_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": BENCH_MODEL, "replications": 500, "seed": 5}))
    return str(path)


class TestSimulate:
    def test_preset_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["simulate", "--preset", "table1", "--reps", "300", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mean_config,estimator,risk,risk_se,prial,prial_se,replications,seed"
        assert len(lines) == 1 + 11 * 5

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "simulate",
                        "--preset",
                        "table1",
                        "--reps",
                        "300",
                        "--seed",
                        "9",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_bytes(self, tmp_path):
        outs = []
        for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--preset",
                    "table1",
                    "--reps",
                    "5000",
                    "--seed",
                    "4",
                    "--workers",
                    str(workers),
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_run_with_json_output(self, bench_config, capsys):
        code = main(["simulate", "--config", bench_config, "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 5
        assert {row["estimator"] for row in rows} == {"PT", "JS", "EB", "HB", "HEB"}
        assert all(row["mean_config"] == "config" for row in rows)

    def test_explicit_estimator_constants(self, tmp_path, capsys):
        doc = {
            "model": BENCH_MODEL,
            "estimators": [{"kind": "EB", "a0": 0.05, "label": "EB-small"}],
            "replications": 200,
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(path), "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["estimator"] == "EB-small"

    def test_zero_reps_rejected(self, capsys):
        code = main(["simulate", "--preset", "table1", "--reps", "0"])
        assert code == 2
        assert "reps" in capsys.readouterr().err

    def test_unknown_preset_rejected(self, capsys):
        assert main(["simulate", "--preset", "tableX"]) == 2

    def test_preset_and_config_mutually_exclusive(self, bench_config):
        assert main(["simulate", "--preset", "table1", "--config", bench_config]) == 2

    def test_invalid_model_reports_field(self, tmp_path, capsys):
        doc = {"model": dict(BENCH_MODEL, sigma2=-1.0), "replications": 10, "seed": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "sigma2" in capsys.readouterr().err


class TestEstimate:
    @staticmethod
    def _write_data(tmp_path, rows, s=None, header=False):
        path = tmp_path / "data.csv"
        lines = []
        if header:
            lines.append(",".join(f"x{j}" for j in range(len(rows[0]))))
        lines.extend(",".join(format(v, ".12g") for v in row) for row in rows)
        if s is not None:
            lines.append(format(s, ".12g"))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_identical_rows_return_pooled_mean(self, tmp_path, bench_config, capsys):
        row = [1.0, 2.0, 3.0, 4.0, 5.0]
        data = self._write_data(tmp_path, [row] * 5, s=2.0, header=True)
        code = main(["estimate", data, "--config", bench_config])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert float(lines["F"]) == pytest.approx(0.0, abs=1e-12)
        for name in ("PT", "JS", "EB", "HB", "HEB"):
            if name == "JS":
                continue
            vals = np.array([float(v) for v in lines[name].split()])
            if name == "HEB":
                continue
            np.testing.assert_allclose(vals, row, rtol=1e-9)

    def test_two_sample_f_statistic(self, tmp_path, capsys):
        model = {
            "p": 4,
            "k": 2,
            "n": 6,
            "V": [1.0, 1.0],
            "Q": 1.0,
        }
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps({"model": model}))
        x1 = [1.0, -1.0, 0.0, 0.0]
        x2 = [0.0, 0.0, 0.0, 0.0]
        data = self._write_data(tmp_path, [x1, x2], s=2.0)
        code = main(["estimate", data, "--config", str(cfg), "--estimators", "eb"])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
        # F = (x1 - x2)'(V1 + V2)^{-1}(x1 - x2)/S = 2/(2*2) = 0.5
        assert float(lines["F"]) == pytest.approx(0.5, rel=1e-12)

    def test_missing_s_row_rejected(self, tmp_path, bench_config, capsys):
        data = self._write_data(tmp_path, [[0.0] * 5] * 5, s=None)
        assert main(["estimate", data, "--config", bench_config]) == 2
        assert "S" in capsys.readouterr().err

    def test_ragged_row_rejected(self, tmp_path, bench_config):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3,4,5\n1,2,3\n1,2,3,4,5\n1,2,3,4,5\n1,2,3,4,5\n2.0\n")
        assert main(["estimate", str(path), "--config", bench_config]) == 2

    def test_nonpositive_s_rejected(self, tmp_path, bench_config):
        data = self._write_data(tmp_path, [[0.0] * 5] * 5, s=-1.0)
        assert main(["estimate", data, "--config", bench_config]) == 2

    def _run_estimators(self, tmp_path, capsys, entries, wanted):
        cfg = tmp_path / "entries.json"
        cfg.write_text(json.dumps({"model": BENCH_MODEL, "estimators": entries}))
        rows = [[0.3 * i - 0.1 * j for j in range(5)] for i in range(5)]
        data = self._write_data(tmp_path, rows, s=2.0)
        code = main(["estimate", data, "--config", str(cfg), "--estimators", wanted])
        out = capsys.readouterr()
        return code, dict(line.split(": ", 1) for line in out.out.strip().splitlines()), out.err

    def test_entries_of_one_kind_are_selected_by_name(self, tmp_path, capsys):
        # Keyed by kind, the c = 15 entry replaced the c = 1 entry under
        # "HB", and "HB15" was not configured.
        hb1, hb15 = {"kind": "HB", "c": 1}, {"kind": "HB", "c": 15}
        _, alone1, _ = self._run_estimators(tmp_path, capsys, [hb1], "HB")
        _, alone15, _ = self._run_estimators(tmp_path, capsys, [hb15], "HB")
        assert alone1["HB"] != alone15["HB"]
        both = [hb1, dict(hb15, label="HB15")]
        code, lines, _ = self._run_estimators(tmp_path, capsys, both, "HB,HB15")
        assert code == 0
        assert lines["HB"] == alone1["HB"] and lines["HB15"] == alone15["HB"]

    def test_entries_sharing_a_name_are_a_config_error(self, tmp_path, capsys):
        entries = [{"kind": "HB", "c": 1}, {"kind": "JS"}, {"kind": "HB", "c": 2}]
        code, lines, err = self._run_estimators(tmp_path, capsys, entries, "JS")
        assert code == 2 and lines == {}
        assert "estimators[0] and estimators[2]" in err and "'HB'" in err

    def test_kind_shared_by_labelled_entries_is_ambiguous(self, tmp_path, capsys):
        entries = [{"kind": "HB", "c": 1, "label": "A"}, {"kind": "HB", "c": 2, "label": "B"}]
        code, lines, err = self._run_estimators(tmp_path, capsys, entries, "HB")
        assert code == 2 and lines == {}
        assert "estimators[0], estimators[1]" in err
        code, lines, _ = self._run_estimators(tmp_path, capsys, entries, "a,B")
        assert code == 0 and set(lines) == {"nu_hat", "F", "G", "A", "B"}


class TestHbConstant:
    """An omitted HB a is solved at the entry's own c."""

    @staticmethod
    def _spec():
        return parse_model(dict(BENCH_MODEL, sigma2=4.0, mu=[0.4, 4, 4, 4, 4]))

    @pytest.mark.parametrize("c, a", [(1.0, -7.72), (2.0, -7.84), (15.0, -9.4)])
    def test_solved_at_entry_c(self, c, a):
        spec = self._spec()
        (cfg,) = parse_estimators([{"kind": "HB", "c": c}], spec, default_alpha=0.05)
        assert cfg.c == c and cfg.L == 0.0
        assert cfg.a == solve_hb_a(spec, c=c)
        assert cfg.a == pytest.approx(a, abs=1e-12)

    def test_given_a_is_kept(self):
        (cfg,) = parse_estimators([{"kind": "HB", "a": -9.0, "c": 15}], self._spec(), 0.05)
        assert cfg.a == -9.0

    def test_large_c_risk_stays_below_the_minimax_risk(self, tmp_path, capsys):
        # With a solved at c = 1 this entry ran at 23 standard errors above
        # tr(V_1 Q) = 5, a PRIAL of -12%.
        doc = {
            "model": dict(BENCH_MODEL, sigma2=4.0, mu=[0.4, 4, 4, 4, 4]),
            "estimators": [{"kind": "HB", "c": 15}],
            "replications": 20_000,
            "seed": 7,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert float(row["risk"]) <= 5.0 + 3.0 * float(row["risk_se"])


class TestCheck:
    def test_benchmark_report(self, bench_config, capsys):
        code = main(["check", "--config", bench_config])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conditions_hold"] is True
        single = payload["single_shrinkage"]
        assert single["ratio"] == pytest.approx(5.0, rel=1e-10)
        assert single["phi_upper_single"] == pytest.approx(6.0 / 22.0, rel=1e-10)
        double = payload["double_shrinkage"]
        assert double["phi_upper_double"] == pytest.approx(3.0 / 22.0, rel=1e-10)
        assert double["psi_upper_double"] == pytest.approx(3.0 / 22.0, rel=1e-10)

    def test_low_dimension_fails_with_exit_one(self, tmp_path, capsys):
        model = {"p": 2, "k": 3, "n": 10, "V": [1.0, 1.0, 1.0], "Q": 1.0}
        cfg = tmp_path / "p2.json"
        cfg.write_text(json.dumps({"model": model}))
        code = main(["check", "--config", str(cfg)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["conditions_hold"] is False

    def test_first_basis_weights_match_single_section(self, bench_config, capsys):
        code = main(["check", "--config", bench_config, "--weights", "1,0,0,0,0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        lin = payload["lincomb_shrinkage"]
        single = payload["single_shrinkage"]
        for key in ("trace", "chmax", "ratio", "phi_upper_single"):
            assert lin[key] == pytest.approx(single[key], rel=1e-10)

    def test_bad_weights_rejected(self, bench_config, capsys):
        assert main(["check", "--config", bench_config, "--weights", "1,0"]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["check", "--config", "/nonexistent/cfg.json"]) == 2


class TestExitCodes:
    """Config errors exit 2 before any output; runtime failures exit 3."""

    @staticmethod
    def _config(tmp_path, model, **extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict({"model": model}, **extra)))
        return str(path)

    @staticmethod
    def _data(tmp_path, s):
        path = tmp_path / "data.csv"
        rows = [[0.1 * (i + j) for j in range(5)] for i in range(5)]
        path.write_text("\n".join(",".join(map(str, row)) for row in rows) + f"\n{s!r}\n")
        return str(path)

    def test_non_numeric_dimension(self, tmp_path, capsys):
        cfg = self._config(tmp_path, dict(BENCH_MODEL, p="five"))
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "model.p" in out.err

    @pytest.mark.parametrize(
        "model_fields, extra, field",
        [
            ({"n": 10.5}, {}, "model.n"),
            ({}, {"replications": 1.5}, "config.replications"),
            ({"sigma2": "Infinity"}, {}, "model.sigma2"),
            ({}, {"estimators": [{"kind": "EB", "a0": "Infinity"}]}, "estimators[0].a0"),
            ({}, {"seed": -1}, "seed"),
            ({"mu": [float("inf"), 0, 0, 0, 0]}, {}, "model.mu[0]"),
            ({"Q": float("nan")}, {}, "model.Q"),
            ({}, {"replications": True}, "config.replications"),
            ({"V": [True, 0.2, 0.3, 0.4, 0.5]}, {}, "model.V[0]"),
            ({"Q": [[True, 0, 0, 0, 0]] + np.eye(5)[1:].tolist()}, {}, "model.Q"),
            ({"mu": [0, 0, False, 0, 0]}, {}, "model.mu[2]"),
        ],
        ids=[
            "n_10.5", "replications_1.5", "sigma2_infinity", "a0_infinity", "seed_-1",
            "mu_infinity", "q_nan", "replications_true", "v_true", "q_true", "mu_false",
        ],
    )
    def test_bad_config_number_names_the_field(
        self, tmp_path, capsys, model_fields, extra, field
    ):
        # Non-integral int fields used to be truncated, non-finite numbers and
        # booleans to pass parsing, and a negative seed to fail at the first
        # draw.
        extra = dict({"replications": 50}, **extra)
        cfg = self._config(tmp_path, dict(BENCH_MODEL, **model_fields), **extra)
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"error: {field}:" in out.err

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"kind": "EB", "b0": 0.3}, "b0"),
            ({"kind": "EB", "alpha": 2.0}, "alpha"),
            ({"kind": "PT", "L": 5}, "L"),
            ({"kind": "JS", "alpha": 0.5}, "alpha"),
        ],
        ids=["eb_b0", "eb_alpha", "pt_l", "js_alpha"],
    )
    def test_other_kinds_field_names_entry_and_field(self, tmp_path, capsys, entry, field):
        # A field of another kind used to be accepted and ignored.
        cfg = self._config(tmp_path, BENCH_MODEL, estimators=[{"kind": "PT"}, entry])
        assert main(["simulate", "--config", cfg, "--reps", "50"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: estimators[1] ({entry['kind']}): fields ['{field}']" in out.err

    def test_negative_seed_option_rejected(self, capsys):
        assert main(["simulate", "--preset", "table1", "--reps", "10", "--seed", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--seed" in out.err

    def test_singular_v1_with_inverse_q(self, tmp_path, capsys):
        model = dict(BENCH_MODEL, V=[[[0.0] * 5] * 5, 0.2, 0.3, 0.4, 0.5])
        assert main(["check", "--config", self._config(tmp_path, model)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "inv_v1" in out.err

    def test_trace_ratio_failure_in_estimator_defaults(self, tmp_path, capsys):
        model = {"p": 2, "k": 3, "n": 10, "V": [1.0, 1.0, 1.0], "Q": 1.0, "mu": [0, 0, 0]}
        assert main(["simulate", "--config", self._config(tmp_path, model)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "trace-ratio" in out.err

    def test_kinds_without_bound_optimal_constants_run(self, tmp_path, capsys):
        # No EB constant exists on this model, and PT and JS need none.
        model = {"p": 2, "k": 3, "n": 10, "V": [1, 1, 1], "Q": 1}
        cfg = self._config(tmp_path, model, estimators=[{"kind": "PT"}, {"kind": "JS"}])
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2\n0.3,-0.4\n1.5,0.6\n2.0\n")
        assert main(["estimate", str(data), "--config", cfg, "--estimators", "pt,js"]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert set(lines) == {"nu_hat", "F", "G", "PT", "JS"}

    def test_missing_bound_optimal_constant_names_the_entry(self, tmp_path, capsys):
        model = {"p": 2, "k": 3, "n": 10, "V": [1, 1, 1], "Q": 1, "mu": [0, 0, 0]}
        cfg = self._config(tmp_path, model, estimators=[{"kind": "PT"}, {"kind": "EB"}])
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "estimators[1] (EB)" in out.err and "trace-ratio" in out.err

    def test_preset_plans_are_validated(self, capsys):
        assert main(["simulate", "--preset", "table1", "--reps", "10", "--alpha", "1.5"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "alpha" in out.err

    def test_tiny_s_gives_finite_estimates(self, tmp_path, bench_config, capsys):
        # F is of order 1e30 here, where phi_hb sits at its large-F limit.
        assert main(["estimate", self._data(tmp_path, 1e-30), "--config", bench_config]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert set(lines) == {"nu_hat", "F", "G", "PT", "JS", "EB", "HB", "HEB"}
        for text in lines.values():
            assert np.all(np.isfinite([float(v) for v in text.split()]))

    @pytest.mark.parametrize("s", [1e-30, 1e-16])
    def test_tiny_s_hb_with_positive_l_is_finite(self, tmp_path, capsys, s):
        # HB with L > 0 at F ~ 1e30 and F ~ 1e16, where Q(m+1, LS/(2(1-z)))
        # cuts off far below the rounding of z = F/(1+F).
        hb = {"kind": "HB", "c": 1, "L": 0.5, "label": "myHB"}
        cfg = self._config(tmp_path, BENCH_MODEL, estimators=[hb])
        assert main(["estimate", self._data(tmp_path, s), "--config", cfg, "--estimators", "HB"]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert np.all(np.isfinite([float(v) for v in lines["HB"].split()]))

    @pytest.mark.parametrize("s", [1e-30, 1e-16])
    def test_hb_quadrature_failure_names_hb(self, tmp_path, capsys, monkeypatch, s):
        # A quadrature that misses its tolerance is a runtime failure naming
        # the entry by its label.
        def missed(*args, **kwargs):
            raise QuadratureError("phi_hb quadrature missed its 1e-12 relative tolerance")

        monkeypatch.setattr("poolshrink.estimators._phi_hb_lpos", missed)
        hb = {"kind": "HB", "c": 1, "L": 0.5, "label": "myHB"}
        cfg = self._config(tmp_path, BENCH_MODEL, estimators=[hb])
        assert main(["estimate", self._data(tmp_path, s), "--config", cfg, "--estimators", "HB"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "estimator myHB failed: phi_hb quadrature" in out.err

    @pytest.mark.parametrize(
        "model_fields, estimators, message",
        [
            # risk_se and prial_se overflowed to nan and the run exited 0.
            (
                {"V": [1e300, 2e300, 3e300]},
                None,
                "huge: estimator PT reported non-finite risk_se = nan, prial_se = nan",
            ),
            # X_1 rounds to mu_1: risk 0, PRIAL 0/0, and the run exited 0.
            (
                {"V": [1, 1, 1], "mu": [1e200, 0, 0]},
                [{"kind": kind} for kind in ("PT", "JS", "EB", "HEB")],
                "huge: estimator PT reported non-finite prial = nan, prial_se = nan",
            ),
        ],
        ids=["v_1e300", "mu_1e200"],
    )
    def test_non_finite_report_exits_three_without_output(
        self, tmp_path, capsys, model_fields, estimators, message
    ):
        model = dict({"p": 3, "k": 3, "n": 10, "Q": 1, "mu": [0, 0, 0]}, **model_fields)
        extra = {"name": "huge", "replications": 100, "seed": 0}
        if estimators is not None:
            extra["estimators"] = estimators
        cfg = self._config(tmp_path, model, **extra)
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", cfg]) == 3
        out = capsys.readouterr()
        assert out.out == "" and message in out.err

    def test_single_replication_reports_nan_standard_errors(self, capsys):
        # A standard error is undefined at one replication; that nan is no failure.
        assert main(["simulate", "--preset", "table1", "--reps", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 55 and all(",nan," in row for row in rows)

    def test_runtime_failure_exits_three_without_output(
        self, tmp_path, bench_config, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise ValueError("numerical failure")

        monkeypatch.setattr("poolshrink.estimators.phi_hb", broken)
        assert main(["estimate", self._data(tmp_path, 2.0), "--config", bench_config]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "numerical failure" in out.err
