"""Config parsing, exit codes, report and CSV emission."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gapflow import cli, tensor
from gapflow.cli import (
    CSV_COLUMNS,
    ConfigError,
    build_model,
    main,
    parse_config,
)
from gapflow.flow import norm_decay_audit, run_flow
from gapflow.tensor import hermitian_norm


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIAG_DROP = [
    [0.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
]


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"d": 1, "N": 3, "seed": 1, "t": 0.05}))
        assert cfg.M == 2
        assert cfg.j_max == 12
        assert cfg.tolerances.spectral == 1e-8
        assert cfg.potentials == "random"

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config(write_config(tmp_path, {"d": 1, "N": 3, "t": 0.05, "foo": 1}))

    def test_removed_n_max_key_refused(self, tmp_path, capsys):
        base = {"d": 1, "N": 3, "t": 0.05}
        for key, payload in [
            ("n_max", {**base, "n_max": 20}),
            ("projector", {**base, "tolerances": {"projector": 1e-12}}),
        ]:
            path = write_config(tmp_path, payload)
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(path)
            assert main(["--config", path]) == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_readme_full_schema_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"Full schema.*?```json\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(write_config(tmp_path, json.loads(block)))
        assert cfg.d == 2 and cfg.tolerances.consistency == 1e-8

    def test_unknown_nested_key(self, tmp_path):
        payload = {"d": 1, "N": 3, "t": 0.05, "tolerances": {"spectre": 1e-8}}
        with pytest.raises(ConfigError, match="unknown key 'spectre'"):
            parse_config(write_config(tmp_path, payload))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 't'"):
            parse_config(write_config(tmp_path, {"d": 1, "N": 3}))

    def test_invalid_json_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 1,\n "N": }')
        with pytest.raises(ConfigError, match="broken.json:2"):
            parse_config(str(path))

    def test_overlarge_potential_rejected(self, tmp_path):
        payload = {
            "d": 1,
            "N": 2,
            "t": 0.05,
            "potentials": [
                {"k": [1], "q": [1], "matrix": [[1.5 if i == j else 0.0 for j in range(4)] for i in range(4)]}
            ],
        }
        cfg = parse_config(write_config(tmp_path, payload))
        with pytest.raises(ConfigError, match="exceeds the unit bound"):
            build_model(cfg)


MALFORMED_VALUES = [
    {"N": "x"},
    {"N": 1},
    {"N": 3.5},
    {"d": True},
    {"d": 0},
    {"M": "2"},
    {"t": "x"},
    {"t": float("nan")},
    {"seed": -1},
    {"j_max": 0},
    {"j_max": "12"},
    {"checks": {"max_sites": "abc"}},
    {"checks": {"max_sites": 0}},
    {"checks": 3},
    {"checks": {"inequalities": "no"}},
    {"output": {"report": 1}},
    {"tolerances": {"consistency": "abc"}},
    {"tolerances": {"spectral": -1e-8}},
    {"tolerances": {"gap_slack": float("inf")}},
    {"tolerances": 5},
]


class TestMalformedValues:
    @pytest.mark.parametrize("change", MALFORMED_VALUES, ids=json.dumps)
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, change):
        path = write_config(tmp_path, {"d": 1, "N": 3, "t": 0.05, **change})
        with pytest.raises(ConfigError):
            parse_config(path)
        assert main(["--config", path]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "Traceback" not in captured.err + captured.out


class TestRun:
    def test_passing_run_exit_zero(self, tmp_path):
        report = tmp_path / "report.json"
        csv_path = tmp_path / "steps.csv"
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.05,
            "seed": 1,
            "output": {"report": str(report), "csv": str(csv_path)},
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        rep = json.loads(report.read_text())
        assert rep["status"] == "pass"
        assert rep["final"]["delta"] >= 0.5
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + len(rep["steps"])

    def test_diverging_coupling_exit_two(self, tmp_path):
        payload = {"d": 1, "N": 2, "t": 3.0, "seed": 1}
        rc = main(["--config", write_config(tmp_path, payload)])
        assert rc == 2

    def test_nearly_hermitian_potential_refused_with_one_error_line(self, tmp_path, capsys):
        # ||A - A^+||_2 = 5e-11 passes a 2-norm test at rtol 1e-10, but not
        # the Frobenius test every later norm and spectrum of the flow applies
        matrix = [[0.0] * 4 for _ in range(4)]
        matrix[0][1], matrix[1][0] = 0.5, 0.50000000005
        payload = {
            "d": 1,
            "N": 2,
            "t": 0.05,
            "potentials": [{"k": [1], "q": [1], "matrix": matrix}],
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines == ["error: potential on Rect(k=(1,), q=(1,)) must be Hermitian"]
        assert "Traceback" not in captured.err + captured.out

    def test_gap_violation_aborts_without_force(self, tmp_path):
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.6,
            "potentials": [
                {"k": [1], "q": [1], "matrix": DIAG_DROP},
                {"k": [1], "q": [2], "matrix": DIAG_DROP},
            ],
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 2

    def test_forced_gap_violation_exit_one(self, tmp_path):
        report = tmp_path / "report.json"
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.6,
            "potentials": [
                {"k": [1], "q": [1], "matrix": DIAG_DROP},
                {"k": [1], "q": [2], "matrix": DIAG_DROP},
            ],
            "output": {"report": str(report)},
        }
        rc = main(["--config", write_config(tmp_path, payload), "--force"])
        assert rc == 1
        rep = json.loads(report.read_text())
        assert rep["status"] == "fail"
        assert any(clause.startswith("step-gap") for clause in rep["failed_clauses"])

    def test_seed_override(self, tmp_path):
        base = {"d": 1, "N": 3, "t": 0.05, "seed": 1}
        cfg = parse_config(write_config(tmp_path, base))
        assert cfg.seed == 1
        rep_a = tmp_path / "a.json"
        rep_b = tmp_path / "b.json"
        main(["--config", write_config(tmp_path, {**base, "output": {"report": str(rep_a)}}, "a.json")])
        main(
            ["--config", write_config(tmp_path, {**base, "output": {"report": str(rep_b)}}, "b.json"), "--seed", "2"]
        )
        assert (
            json.loads(rep_a.read_text())["fingerprint"]
            != json.loads(rep_b.read_text())["fingerprint"]
        )

    def test_norm_audit_computed_once(self, tmp_path, monkeypatch):
        # across the series, run_flow's audit and verify_main_theorem's audit
        # no matrix is normed twice, and every audited entry was normed
        states, normed = [], []

        def keep_state(*args, **kwargs):
            states.append(run_flow(*args, **kwargs))
            return states[-1]

        def counted_norm(op):
            normed.append(op)
            return hermitian_norm(op)

        monkeypatch.setattr(cli, "run_flow", keep_state)
        monkeypatch.setattr(tensor, "hermitian_norm", counted_norm)
        report = tmp_path / "report.json"
        payload = {"d": 1, "N": 4, "t": 0.05, "seed": 7, "output": {"report": str(report)}}
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        (state,) = states
        assert len({id(op.matrix) for op in normed}) == len(normed)
        audited = [op for key, op in state.interactions.items() if key.circumference >= 1]
        assert {id(op) for op in audited} <= {id(op) for op in normed}
        rows = json.loads(report.read_text())["norm_audit"]
        assert rows and rows == norm_decay_audit(state)

    def test_inequality_toggle(self, tmp_path):
        report = tmp_path / "report.json"
        payload = {
            "d": 1,
            "N": 2,
            "t": 0.02,
            "seed": 1,
            "checks": {"inequalities": True, "max_sites": 2},
            "output": {"report": str(report)},
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        rep = json.loads(report.read_text())
        assert rep["inequalities"] and all(r["pass"] for r in rep["inequalities"])


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        # the promise covers reruns at one fixed BLAS thread count
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = dict(os.environ, **{name: "1" for name in threads})
        texts = []
        for name in ("one", "two"):
            report = tmp_path / f"{name}.json"
            payload = {
                "d": 1,
                "N": 4,
                "t": 0.05,
                "seed": 7,
                "output": {"report": str(report)},
            }
            cfg_path = write_config(tmp_path, payload, f"{name}.json.cfg")
            proc = subprocess.run(
                [sys.executable, "-m", "gapflow.cli", "--config", cfg_path],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            texts.append(report.read_text())
        assert strip_timestamp(texts[0]) == strip_timestamp(texts[1])
