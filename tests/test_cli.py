"""Command-line interface: config parsing, report emission, determinism
across worker counts, and exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolshrink import cli, minimax
from poolshrink.cli import ConfigError, main, parse_estimators, parse_model
from poolshrink.minimax import lincomb_shrinkage_report, solve_hb_a
from poolshrink.numerics import QuadratureError

DATA = Path(__file__).parent / "data"

BENCH_MODEL = {
    "p": 5,
    "k": 5,
    "n": 20,
    "sigma2": 2.0,
    "V": [0.1, 0.2, 0.3, 0.4, 0.5],
    "Q": "inv_v1",
    "mu": [0, 0, 0, 0, 0],
}


# The five-sample model in units where tr((V_1 - A) Q) is about 3e-13.
SMALL_V_MODEL = {
    "p": 5,
    "k": 5,
    "n": 20,
    "V": [1e-13, 2e-13, 3e-13, 4e-13, 5e-13],
    "Q": 1,
    "mu": [0, 0, 0, 0, 0],
}


def strict_json(text: str):
    """``json.loads`` that rejects the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# The console smoke run of ``estimate``: its model and its data rows
# without S.
SMOKE_MODEL = {
    "p": 5, "k": 5, "n": 20, "sigma2": 4.0, "V": [0.1, 0.2, 0.3, 0.4, 0.5], "Q": "inv_v1"
}
SMOKE_ROWS = (
    "0.1,0.2,0.3,0.4,0.5\n-0.3,0.1,0.7,0.2,0.0\n1.1,0.9,-0.4,0.3,0.2\n"
    "0.5,0.5,0.5,-1.0,0.8\n0.0,-0.2,0.6,1.4,0.3\n"
)


def smoke_estimate(tmp_path, s: str) -> list[str]:
    """The smoke ``estimate`` call's arguments, with S written as ``s``."""
    cfg, data = tmp_path / "model.json", tmp_path / "data.csv"
    cfg.write_text(json.dumps({"model": SMOKE_MODEL}))
    data.write_text(SMOKE_ROWS + s + "\n")
    return ["estimate", str(data), "--config", str(cfg)]


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

    @pytest.mark.parametrize(
        "argv, pinned",
        [
            (["--preset", "table1", "--reps", "4097", "--seed", "0"], "table1_reps4097_seed0.csv"),
            (["--config", str(DATA / "hb_config.json")], "hb_config_seed3.csv"),
        ],
    )
    def test_numbers_match_the_pinned_run(self, capsys, argv, pinned):
        # The reports of an earlier commit, to the printed precision, so a
        # last-bit BLAS difference passes while a change of the draw streams,
        # which moves values by a standard error, does not.  A deliberate
        # stream change updates the pinned files.
        assert main(["simulate", *argv]) == 0
        got = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        want = list(csv.DictReader(io.StringIO((DATA / pinned).read_text())))
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert list(got_row) == list(want_row)
            for field, value in want_row.items():
                if field in ("mean_config", "estimator"):
                    assert got_row[field] == value
                else:
                    assert float(got_row[field]) == pytest.approx(float(value), rel=1e-5)

    def test_small_units_run(self, tmp_path, capsys):
        # The EB default failed with "trace-ratio condition fails" once the
        # traces fell below 1e-12, although the ratio is 5 in any units.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": SMALL_V_MODEL}))
        assert main(["simulate", "--config", str(path), "--reps", "100"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5

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


class TestSimulateConfig:
    def test_entries_sharing_a_name_are_a_config_error(self, tmp_path, capsys):
        # Both entries were printed as rows "config,EB", so a reader keyed on
        # (mean_config, estimator) kept one; ``estimate`` rejected the config.
        entries = [{"kind": "EB"}, {"kind": "EB", "a0": 0.1}]
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps({"model": BENCH_MODEL, "estimators": entries}))
        assert main(["simulate", "--config", str(cfg), "--reps", "16"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "estimators[0] and estimators[1] share the name 'EB'" in out.err

    def test_hb_where_ls_overflows_is_the_limit(self, tmp_path, capsys):
        # kappa = LS/2 overflows at L = 1e308: the run exited 3 on "repeats may
        # not contain negative values", and under warnings as errors on an
        # overflow.  HB is X_1 there, with PRIAL 0.
        model = dict(BENCH_MODEL, sigma2=4.0)
        cfg = tmp_path / "hb.json"
        cfg.write_text(json.dumps({"model": model, "estimators": [{"kind": "HB", "L": 1e308}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--reps", "256"]) == 0
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["estimator"] == "HB" and float(row["prial"]) == 0.0

    def test_hb_at_large_n_runs(self, tmp_path, capsys):
        # At n = 8000 kappa = LS/2 lies near m + 1 = 4010, where the series
        # of Q(m+1, .) needs more than 500 terms: the run exited 3 with "HB
        # failed at replication 40 (seed 0): incomplete gamma series did not
        # converge".
        model = dict(BENCH_MODEL, n=8000, sigma2=4.0)
        cfg = tmp_path / "hb.json"
        cfg.write_text(json.dumps({"model": model, "estimators": [{"kind": "HB", "L": 0.25}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--reps", "64", "--seed", "0"]) == 0
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["estimator"] == "HB" and np.isfinite(float(row["prial"]))


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

    def test_smoke_run_matches_pinned_output(self, tmp_path, capsys):
        assert main(smoke_estimate(tmp_path, "3.7")) == 0
        assert capsys.readouterr().out == (DATA / "estimate_table1.txt").read_text()

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

    def test_one_op_builds_each_minimax_report_once(
        self, tmp_path, bench_config, capsys, monkeypatch
    ):
        # EB, HB and HEB each built the single-shrinkage report and HEB the
        # pooled one: 4 builds, 3 of them alike.
        calls = []
        build = minimax._shrinkage_report
        monkeypatch.setattr(
            minimax, "_shrinkage_report", lambda *a, **kw: calls.append(a) or build(*a, **kw)
        )
        rows = [[0.1 * (i + j) for j in range(5)] for i in range(5)]
        data = self._write_data(tmp_path, rows, s=2.0)
        assert main(["estimate", data, "--config", bench_config]) == 0
        assert len(calls) == 2

    def test_entries_sharing_a_name_are_a_config_error(self, tmp_path, capsys):
        entries = [{"kind": "HB", "c": 1}, {"kind": "JS"}, {"kind": "HB", "c": 2}]
        code, lines, err = self._run_estimators(tmp_path, capsys, entries, "JS")
        assert code == 2 and lines == {}
        assert "estimators[0] and estimators[2]" in err and "'HB'" in err

    def test_without_a_section_only_selected_kinds_are_built(self, tmp_path, capsys):
        # No EB constant exists on this model.  All five preset entries used
        # to be built, so "pt,js" exited 2 naming EB.
        model = {"p": 2, "k": 3, "n": 10, "V": [1, 1, 1], "Q": 1}
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"model": model}))
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2\n0.3,-0.4\n1.5,0.6\n2.0\n")
        argv = ["estimate", str(data), "--config", str(cfg), "--estimators"]
        assert main(argv + ["pt,js"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert main(argv + ["pt,eb"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "estimators[1] (EB): trace-ratio" in out.err
        assert main(argv + ["pt,cs"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "estimators not configured: CS" in out.err

    def test_kind_shared_by_labelled_entries_is_ambiguous(self, tmp_path, capsys):
        entries = [{"kind": "HB", "c": 1, "label": "A"}, {"kind": "HB", "c": 2, "label": "B"}]
        code, lines, err = self._run_estimators(tmp_path, capsys, entries, "HB")
        assert code == 2 and lines == {}
        assert "estimators[0], estimators[1]" in err
        code, lines, _ = self._run_estimators(tmp_path, capsys, entries, "a,B")
        assert code == 0 and set(lines) == {"nu_hat", "F", "G", "A", "B"}


class TestConsecutiveCalls:
    """``main`` reuses one parser; a call's options do not carry over to the
    next call."""

    def test_simulate_format_resets(self, bench_config, capsys):
        assert main(["simulate", "--config", bench_config, "--reps", "10", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 5
        assert main(["simulate", "--config", bench_config, "--reps", "10"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["estimator"] for row in rows] == ["PT", "JS", "EB", "HB", "HEB"]

    def test_estimate_selection_resets(self, tmp_path, bench_config, capsys):
        rows = [[0.1 * (i + j) for j in range(5)] for i in range(5)]
        data = TestEstimate._write_data(tmp_path, rows, s=2.0)
        names = lambda out: [line.split(":")[0] for line in out.splitlines()]
        assert main(["estimate", data, "--config", bench_config, "--estimators", "pt"]) == 0
        assert names(capsys.readouterr().out) == ["nu_hat", "F", "G", "PT"]
        assert main(["estimate", data, "--config", bench_config]) == 0
        assert names(capsys.readouterr().out) == ["nu_hat", "F", "G", "PT", "JS", "EB", "HB", "HEB"]


class TestAllocatorPolicy:
    """``main`` sets glibc's allocator, once per process, to keep freed
    arrays under 32 MiB, so that a run does not fault its working memory in
    again for every chunk."""

    @pytest.fixture(autouse=True)
    def _fresh_policy(self):
        cli._keep_freed_memory.cache_clear()
        yield
        cli._keep_freed_memory.cache_clear()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
    def test_second_table1_run_faults_few_pages(self):
        # Without the policy the second run took about 450 minor faults.
        script = (
            "import contextlib, io, resource\n"
            "from poolshrink.cli import main\n"
            "def run():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(['simulate', '--preset', 'table1', '--reps', '2048']) == 0\n"
            "run()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(run.stdout) < 64

    def test_sets_both_thresholds_once(self, monkeypatch, bench_config, capsys):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        for _ in range(2):
            assert main(["simulate", "--config", bench_config, "--reps", "10"]) == 0
        # M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at 64 MiB.
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_no_op_without_mallopt(self, monkeypatch, bench_config, capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
        assert main(["simulate", "--config", bench_config, "--reps", "10"]) == 0
        assert capsys.readouterr().err == ""


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

    @pytest.mark.parametrize("weights", ["nan,1,1,1,1", "inf,1,1,1,1"])
    def test_non_finite_weights_are_a_config_error(self, bench_config, capsys, weights):
        # These exited 3 with "M has non-finite entries".
        assert main(["check", "--config", bench_config, "--weights", weights]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "error: --weights: expected finite values" in out.err

    def test_overflowing_weights_are_named(self, bench_config, capsys):
        # The squared weight sum overflowed a Python float, which exited 3
        # with "(34, 'Numerical result out of range')".
        assert main(["check", "--config", bench_config, "--weights", "1e200,1,1,1,1"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "M_d is not finite for the weights [1e+200, 1.0" in out.err
        assert "34" not in out.err and "out of range" not in out.err

    def _check(self, tmp_path, capsys, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": model}))
        code = main(["check", "--config", str(path)])
        return code, strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize("units", ["V", "Q"])
    def test_condition_does_not_depend_on_units(self, tmp_path, capsys, units):
        # Ch_max counted as zero below an absolute 1e-12 once the trace was
        # below 1, so these models printed "ratio": null and exited 1.
        unit_model = {**SMALL_V_MODEL, "V": [0.1, 0.2, 0.3, 0.4, 0.5]}
        model = SMALL_V_MODEL if units == "V" else {**unit_model, "Q": 1e-13}
        code, report = self._check(tmp_path, capsys, model)
        unit_code, unit_report = self._check(tmp_path, capsys, unit_model)
        assert code == unit_code == 0
        for section in ("single_shrinkage", "double_shrinkage"):
            for key in ("ratio", "ratio_pooled"):
                if key in unit_report[section]:
                    assert report[section][key] == pytest.approx(
                        unit_report[section][key], rel=1e-12
                    )

    def test_small_weights_keep_the_ratio(self, bench_config, capsys):
        # 1e-7 weights printed "ratio": null and exited 1, while 1e-6 and
        # 1 weights gave ratio 5.
        assert main(["check", "--config", bench_config, "--weights=1,1,1,1,1"]) == 0
        unit = strict_json(capsys.readouterr().out)["lincomb_shrinkage"]
        small_weights = "--weights=" + ",".join(["1e-7"] * 5)
        assert main(["check", "--config", bench_config, small_weights]) == 0
        small = strict_json(capsys.readouterr().out)["lincomb_shrinkage"]
        assert small["condition_holds"] is True
        assert small["ratio"] == pytest.approx(unit["ratio"], rel=1e-12)

    @pytest.mark.parametrize(
        "weights, trace", [("1e154,-1e154,1,1,1", None), (",".join(["1e-300"] * 5), 0.0)]
    )
    def test_extreme_weights_keep_the_ratio(self, bench_config, capsys, weights, trace):
        # The ratio does not depend on the scale of d, but 1e154 weights
        # exited 3 with "Eigenvalues did not converge" (an overflow warning
        # under -W error), and 1e-300 weights printed "ratio": null and
        # exited 1.  The trace itself overflows or underflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", bench_config, f"--weights={weights}"]) == 0
        lin = strict_json(capsys.readouterr().out)["lincomb_shrinkage"]
        assert lin["condition_holds"] is True
        assert lin["ratio"] == pytest.approx(5.0, rel=1e-12)
        assert lin["trace"] == trace

    def test_undefined_values_are_null(self, bench_config, capsys):
        # Zero weights leave M_d = 0, so the ratio and the bounds are
        # undefined; they were printed as NaN, which is not JSON.
        assert main(["check", "--config", bench_config, "--weights", "0,0,0,0,0"]) == 1
        lin = strict_json(capsys.readouterr().out)["lincomb_shrinkage"]
        assert lin["condition_holds"] is False
        assert lin["ratio"] is lin["phi_upper_single"] is lin["phi_upper_double"] is None
        # The library report keeps its NaN.
        report = lincomb_shrinkage_report(parse_model(BENCH_MODEL), [0.0] * 5)
        assert np.isnan(report.ratio) and np.isnan(report.phi_upper_double)

    def test_missing_config_file(self, capsys):
        assert main(["check", "--config", "/nonexistent/cfg.json"]) == 2


def _model_without(field: str) -> dict:
    return {key: value for key, value in BENCH_MODEL.items() if key != field}


ROW = "0.1,0.2,0.3,0.4,0.5\n"
# (id, command, config document or its text, data file text or None for no
# file, more options, what the error names): each input exits 2.
ERROR_PATHS = [
    ("no_estimators", "simulate", {"model": BENCH_MODEL, "estimators": []}, None, [],
     "estimators: expected a nonempty list"),
    ("entry_without_kind", "simulate", {"model": BENCH_MODEL, "estimators": [{"a0": 1.0}]},
     None, [], "estimators[0]: expected an object with a 'kind' field"),
    ("class1_in_config", "simulate", {"model": BENCH_MODEL, "estimators": [{"kind": "CLASS1"}]},
     None, [], "estimators[0]: kind 'CLASS1' is not supported in config files"),
    ("four_v", "simulate", {"model": dict(BENCH_MODEL, V=[0.1, 0.2, 0.3, 0.4])}, None, [],
     "model.V: expected a list of 5 entries"),
    ("no_mu", "simulate", {"model": _model_without("mu")}, None, [],
     "model.mu: required for simulation configs"),
    ("three_mu", "simulate", {"model": dict(BENCH_MODEL, mu=[0, 0, 0])}, None, [],
     "model.mu: expected a list of 5 entries"),
    ("p_0", "simulate", {"model": dict(BENCH_MODEL, p=0)}, None, [],
     "model.p: dimension must be >= 1"),
    ("model_list", "simulate", {"model": [1]}, None, [], "model: expected an object"),
    ("not_json", "simulate", "{not json", None, [], "is not valid JSON"),
    ("top_level_array", "simulate", "[1, 2]", None, [], "expected a JSON object at top level"),
    ("workers_0", "simulate", {"model": BENCH_MODEL}, None, ["--workers", "0"],
     "--workers: must be >= 1"),
    ("replications_0", "simulate", {"model": BENCH_MODEL, "replications": 0}, None, [],
     "replications: must be >= 1"),
    ("no_k", "simulate", {"model": _model_without("k")}, None, [],
     "model: missing required field 'k'"),
    ("v_2x2", "simulate", {"model": dict(BENCH_MODEL, V=[[[1, 0], [0, 1]], 0.2, 0.3, 0.4, 0.5])},
     None, [], "model.V[0]: expected a scalar or shape (5, 5)"),
    ("v_string", "simulate", {"model": dict(BENCH_MODEL, V=["a", 0.2, 0.3, 0.4, 0.5])}, None,
     [], "model.V[0]: expected numbers"),
    ("non_numeric_cell", "estimate", {"model": BENCH_MODEL},
     2 * ROW + "0.1,x,0.3,0.4,0.5\n" + 2 * ROW + "2.0\n", [], "data row 2: "),
    ("final_row_of_two", "estimate", {"model": BENCH_MODEL}, 5 * ROW + "2.0,3.0\n", [],
     "final row must hold the single value S, got 2 values"),
    ("non_numeric_s", "estimate", {"model": BENCH_MODEL}, 5 * ROW + "abc\n", [], "S: could not"),
    ("missing_data_file", "estimate", {"model": BENCH_MODEL}, None, [], "cannot read data file"),
    ("inf_cell", "estimate", {"model": BENCH_MODEL}, "0.1,inf,0.3,0.4,0.5\n" + 4 * ROW + "2.0\n",
     [], "data rows must hold finite values"),
    ("letter_weights", "check", {"model": BENCH_MODEL}, None, ["--weights", "a,b,c,d,e"],
     "--weights: could not convert"),
]


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
        "model_fields, extra, field",
        [
            ({"sigma2": 10**400}, {}, "model.sigma2"),
            ({"V": [10**400, 0.2, 0.3, 0.4, 0.5]}, {}, "model.V[0]"),
            ({"Q": 10**400}, {}, "model.Q"),
            ({"mu": [10**400, 0, 0, 0, 0]}, {}, "model.mu[0]"),
            ({"n": 10**400}, {}, "model.n"),
            ({}, {"estimators": [{"kind": "HB", "L": 10**400}]}, "estimators[0].L"),
        ],
        ids=["sigma2", "v", "q", "mu", "n", "hb_l"],
    )
    def test_integer_past_the_float_range_names_the_field(
        self, tmp_path, capsys, model_fields, extra, field
    ):
        # A JSON integer that no float holds used to exit 3 with "int too
        # large to convert to float" and no field named.
        cfg = self._config(tmp_path, dict(BENCH_MODEL, **model_fields), **extra)
        assert main(["simulate", "--config", cfg, "--reps", "50"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"error: {field}:" in out.err

    def test_seed_past_the_float_range_runs(self, tmp_path, capsys):
        cfg = self._config(tmp_path, BENCH_MODEL, seed=10**400)
        assert main(["simulate", "--config", cfg, "--reps", "50"]) == 0
        assert f",50,{10**400}" in capsys.readouterr().out

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
        ],
        ids=["v_1e300"],
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

    def test_huge_first_mean_is_answered(self, tmp_path, capsys):
        # mu_1 = 1e200 and the other means 0.  X_1 rounded to mu_1, so the
        # risk was 0, each PRIAL 0/0, and the run exited 3 naming JS's nan
        # PRIAL.  The losses are taken from the noise's forms, so every
        # estimator is X_1 here (F and G overflow) and scores its risk.
        model = {"p": 3, "k": 3, "n": 10, "Q": 1, "V": [1, 1, 1], "mu": [1e200, 0, 0]}
        estimators = [{"kind": kind} for kind in ("PT", "JS", "EB", "HEB")]
        cfg = self._config(tmp_path, model, name="huge", replications=100, seed=0,
                           estimators=estimators)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["estimator"] for row in rows] == ["PT", "JS", "EB", "HEB"]
        for row in rows:
            values = [float(row[key]) for key in ("risk", "risk_se", "prial", "prial_se")]
            assert np.all(np.isfinite(values)) and values[2] == 0.0, row

    def test_huge_common_mean_is_answered(self, tmp_path, capsys):
        # Every mean 1e17.  X_1 rounded to mu_1, so the baseline risk was 0,
        # each PRIAL 0/0, and the run exited 3.  Now every value is finite,
        # and PT, EB and HB, which are shift-equivariant, print the rows of
        # the same model at means 0 byte for byte.
        outputs = []
        for mean in (0.0, 1e17):
            cfg = self._config(tmp_path, dict(BENCH_MODEL, mu=[mean] * 5))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["simulate", "--config", cfg, "--reps", "4096", "--seed", "0"]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        zero, huge = ({line.split(",")[1]: line for line in lines[1:]} for lines in outputs)
        assert list(huge) == ["PT", "JS", "EB", "HB", "HEB"]
        for name, line in huge.items():
            assert np.all(np.isfinite([float(v) for v in line.split(",")[2:]])), line
        for name in ("PT", "EB", "HB"):
            assert huge[name] == zero[name]

    def test_zero_baseline_risk_is_named(self, tmp_path, capsys):
        # V and Q in units of 1e-200: the loss x'Qx of X_1 underflows to 0,
        # so the baseline risk is 0 and each PRIAL 0/0.  A run named only the
        # nan, or under warnings as errors only "invalid value encountered in
        # scalar divide".
        V = [0.1 * i * 1e-200 for i in range(1, 6)]
        cfg = self._config(tmp_path, dict(BENCH_MODEL, V=V, Q=1e-200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--reps", "4096", "--seed", "0"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "baseline risk is 0" in out.err

    def test_tiny_s_names_f(self, tmp_path, capsys):
        # S = 5e-324 overflows F.  The run exited 3 naming F after two
        # RuntimeWarnings, and under warnings as errors named only
        # "overflow encountered in divide".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(smoke_estimate(tmp_path, "5e-324")) == 3
        out = capsys.readouterr()
        assert out.out == "" and "F is not finite" in out.err

    def test_overflowing_g_is_named(self, tmp_path, capsys):
        # Means of 1e160 overflow the printed G but not nu_hat, F or the
        # estimates, which do not read G.
        cfg = self._config(tmp_path, SMOKE_MODEL)
        rows = [[1e160] * 5 for _ in range(5)]
        rows[1][0] = 1e160 + 1e150
        data = tmp_path / "data.csv"
        data.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows) + "1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(data), "--config", cfg]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "G is not finite: [inf]" in out.err

    def test_asymmetric_q_the_model_accepts(self, tmp_path, capsys):
        # The model accepts this Q, asymmetric to 0.9e-12 relative, just
        # inside its tolerance; the reports take its symmetric part.
        q = 1e-13 * np.eye(5)
        q[0, 1] = 0.9e-25
        cfg = self._config(tmp_path, dict(SMOKE_MODEL, Q=q.tolist()))
        assert main(["check", "--config", cfg]) == 0
        report = strict_json(capsys.readouterr().out)["single_shrinkage"]
        assert report["condition_holds"]
        assert main(smoke_estimate(tmp_path, "3.7")[:2] + ["--config", cfg]) == 0
        assert "EB: " in capsys.readouterr().out

    def test_asymmetric_v_below_unit_scale_exits_two(self, tmp_path, capsys):
        # The symmetry check used to be absolute below unit scale, so check
        # and simulate accepted this V[0] and ran on its symmetric part.
        v0 = (1e-13 * np.array([[1.0, 0.5], [0.0, 1.0]])).tolist()
        model = {"p": 2, "k": 3, "n": 20, "V": [v0, 2e-13, 3e-13], "Q": 1, "mu": [0, 0, 0]}
        with pytest.raises(ConfigError, match=r"^model: V\[0\] is not symmetric"):
            parse_model(model)
        cfg = self._config(tmp_path, model)
        for argv in (["check"], ["simulate", "--reps", "16"]):
            assert main(argv + ["--config", cfg]) == 2
            out = capsys.readouterr()
            assert out.out == "" and "V[0] is not symmetric" in out.err

    @pytest.mark.parametrize(
        "units, trace, simulate_error",
        [
            # The trace underflowed to 0, so check printed "ratio": null and
            # exited 1, and estimate and simulate exited 2 with "estimators[2]
            # (EB): trace-ratio condition fails".  The losses underflow too.
            (-200, 0.0, "(baseline risk is 0)"),
            # The trace overflowed, so check exited 3 with "Eigenvalues did
            # not converge", and estimate and simulate exited 2 with that
            # message.  The losses overflow too.
            (300, None, "estimator PT failed at replication 0 (seed 0): non-finite loss"),
        ],
        ids=["units_1e-200", "units_1e300"],
    )
    def test_model_units_do_not_decide_the_condition(
        self, tmp_path, capsys, units, trace, simulate_error
    ):
        scale = 10.0**units
        V = [0.1 * i * scale for i in range(1, 6)]
        cfg = self._config(tmp_path, dict(SMOKE_MODEL, V=V, Q=scale, mu=[0] * 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg]) == 0
            report = strict_json(capsys.readouterr().out)["single_shrinkage"]
            assert report["ratio"] == pytest.approx(5.0, rel=1e-12)
            assert report["trace"] == trace
            assert main(smoke_estimate(tmp_path, "3.7")[:2] + ["--config", cfg]) == 0
            assert "EB: " in capsys.readouterr().out
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", cfg, "--reps", "16"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and simulate_error in out.err

    def test_overflowing_baseline_loss_is_named_under_warnings_as_errors(self, tmp_path, capsys):
        # The loss of X_1 overflows.  Under warnings as errors the run exited
        # 3 with only "overflow encountered in matmul".
        model = {"p": 5, "k": 5, "n": 20, "V": [i * 1e299 for i in range(1, 6)], "Q": 1e300,
                 "mu": [0] * 5}
        cfg = self._config(tmp_path, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--reps", "16"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "estimator PT failed at replication 0 (seed 0): non-finite loss" in out.err

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "warnings_as_errors"])
    @pytest.mark.parametrize(
        "command, doc, data, extra, named",
        [case[1:] for case in ERROR_PATHS],
        ids=[case[0] for case in ERROR_PATHS],
    )
    def test_config_and_data_errors_name_their_field(
        self, tmp_path, capsys, command, doc, data, extra, named, strict
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv = [command]
        if command == "estimate":
            path = tmp_path / "data.csv"
            if data is not None:
                path.write_text(data)
            argv.append(str(path))
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            assert main(argv + ["--config", str(cfg), *extra]) == 2
        out = capsys.readouterr()
        assert out.out == "" and named in out.err

    @pytest.mark.parametrize(
        "label", [5, "", ["a"], []], ids=["int", "empty", "list", "empty_list"]
    )
    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_label_must_be_a_non_empty_string(self, tmp_path, capsys, command, label):
        # Label 5 made estimate exit 3 ("'int' object has no attribute
        # 'upper'"); simulate printed 5, an empty name or ['a'] with exit 0.
        cfg = self._config(
            tmp_path, BENCH_MODEL, replications=10, estimators=[{"kind": "EB", "label": label}]
        )
        argv = {"simulate": ["simulate"], "estimate": ["estimate", self._data(tmp_path, 2.0)]}
        assert main(argv[command] + ["--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"label: must be a non-empty string, got {label!r}" in out.err

    @pytest.mark.parametrize("name", [[1, 2], "", {"a": 1}, 7], ids=["list", "empty", "object", "int"])
    def test_config_name_must_be_a_non_empty_string(self, tmp_path, capsys, name):
        # Each was stringified into mean_config, with exit 0.
        cfg = self._config(tmp_path, BENCH_MODEL, name=name, replications=10)
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"error: name: expected a non-empty string, got {name!r}" in out.err

    def test_null_config_name_is_the_default(self, tmp_path, capsys):
        # A null name was printed as "None".
        cfg = self._config(tmp_path, BENCH_MODEL, name=None, replications=10)
        assert main(["simulate", "--config", cfg]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows and all(row.startswith("config,") for row in rows)

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


# Floats for the fuzz properties: the non-finite values, zero, magnitudes
# from 1e-300 to 1e300 of either sign, and any other float.
FUZZ_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0]),
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-300.0, 300.0), st.sampled_from([1, -1])),
    st.floats(),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FUZZ_FLOATS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
MISSING = object()


def run_cli(argv):
    """(exit code, stdout, stderr) of an in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_named_outcome(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


class TestFuzz:
    """Every input either succeeds or fails with its exit code and a
    message, never a traceback; a config error leaves stdout empty, and
    ``check`` writes strict JSON."""

    @settings(max_examples=150)
    @given(
        st.integers(-1, 1).flatmap(
            lambda extra: st.lists(FUZZ_FLOATS, min_size=5 + extra, max_size=5 + extra)
        )
    )
    @example([0.0] * 5)
    def test_check_weights(self, weights):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"model": BENCH_MODEL}))
            argv = ["check", "--config", str(cfg), "--weights=" + ",".join(map(repr, weights))]
            code, out, err = run_cli(argv)
        assert_named_outcome(code, out, err)
        if code in (0, 1):
            strict_json(out)

    @settings(max_examples=60)
    @given(JSON_VALUES | st.just(MISSING), JSON_VALUES | st.just(MISSING), st.booleans())
    def test_label_and_name(self, label, name, simulate):
        entry = {"kind": "EB"}
        if label is not MISSING:
            entry["label"] = label
        doc = {"model": BENCH_MODEL, "estimators": [entry], "replications": 3}
        if name is not MISSING:
            doc["name"] = name
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            data = Path(tmp) / "data.csv"
            data.write_text("0.1,0.2,0.3,0.4,0.5\n" * 5 + "2.0\n")
            if simulate:
                argv = ["simulate", "--config", str(cfg)]
            else:
                argv = ["estimate", str(data), "--config", str(cfg), "--estimators", "EB"]
            code, out, err = run_cli(argv)
        assert_named_outcome(code, out, err)
        if code == 0:
            # Only a non-empty string names an estimator or a run.
            assert label in (MISSING, None) or (isinstance(label, str) and label)
            assert name in (MISSING, None) or (isinstance(name, str) and name) or not simulate

    @settings(max_examples=100)
    @given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    @example(300.0, 300.0)
    @example(-300.0, -300.0)
    @example(-300.0, 300.0)
    @example(300.0, -300.0)
    def test_model_units(self, a, b):
        # The table1 model with V times 10^a and Q times 10^b: the condition
        # holds with ratio 5 at any units, and the runs succeed or name a
        # runtime failure.
        V = [0.1 * i * 10.0**a for i in range(1, 6)]
        model = dict(SMOKE_MODEL, V=V, Q=10.0 ** (1.0 + b), mu=[0] * 5)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({"model": model}))
            data = Path(tmp) / "data.csv"
            data.write_text(SMOKE_ROWS + "3.7\n")
            code, out, err = run_cli(["check", "--config", str(cfg)])
            assert code == 0, err
            report = strict_json(out)
            for section, key in (("single_shrinkage", "ratio"), ("double_shrinkage", "ratio_pooled")):
                assert report[section][key] == pytest.approx(5.0, rel=1e-12)
            for argv in (["estimate", str(data)], ["simulate", "--reps", "16"]):
                code, out, err = run_cli([*argv, "--config", str(cfg)])
                assert_named_outcome(code, out, err)
                assert code in (0, 3), err

    @settings(max_examples=200)
    @given(
        L=st.sampled_from([0.0, 5e-324, 1e308]) | st.builds(lambda e: 10.0**e, st.floats(-300.0, 300.0)),
        # BENCH_MODEL's HB domain is a > -10 and a + c < 10.
        a=st.floats(-30.0, 30.0),
        c=st.floats(-30.0, 30.0),
        log_s=st.floats(-300.0, 300.0),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    # a + c 1e-7 below n/2: the two rule orders of phi_hb differ by 1.4e-12
    # relative, and estimate names the missed tolerance (exit 3).
    @example(L=0.5, a=0.0, c=9.9999999, log_s=0.0, alpha=0.05)
    def test_hb_constants(self, L, a, c, log_s, alpha):
        doc = {"model": BENCH_MODEL, "estimators": [{"kind": "HB", "a": a, "c": c, "L": L}]}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            data = Path(tmp) / "data.csv"
            data.write_text(SMOKE_ROWS + repr(10.0**log_s) + "\n")
            options = ["--config", str(cfg), "--alpha", repr(alpha)]
            code, out, err = run_cli(["estimate", str(data), "--estimators", "HB", *options])
            assert_named_outcome(code, out, err)
            if code == 0:
                for line in out.splitlines():
                    assert all(math.isfinite(float(v)) for v in line.split(":")[1].split()), line
            code, out, err = run_cli(["simulate", "--reps", "16", *options])
            assert_named_outcome(code, out, err)
