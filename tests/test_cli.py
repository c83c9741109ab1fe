"""Config parsing, exit codes, report and CSV emission."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapflow import cli, tensor, verify
from gapflow.cli import (
    CSV_COLUMNS,
    ConfigError,
    build_model,
    main,
    parse_config,
)
from gapflow.flow import StepRecord, Tolerances, norm_decay_audit, run_flow
from gapflow.geometry import LatticeSpec, Rect
from gapflow.model import random_model
from gapflow.tensor import hermitian_norm


# the checkout's sources, for the CLI run as a module in a child process
SRC = Path(__file__).parents[1] / "src"


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
        for key, where, payload in [
            ("n_max", "the top level", {**base, "n_max": 20}),
            ("projector", "'tolerances'", {**base, "tolerances": {"projector": 1e-12}}),
            ("inequalities", "'checks'", {**base, "checks": {"inequalities": True}}),
            ("max_sites", "'checks'", {**base, "checks": {"max_sites": 10}}),
        ]:
            path = write_config(tmp_path, payload)
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(path)
            assert main(["--config", path]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"error: unknown key '{key}' in {where}"], lines

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

    def test_overlarge_potential_rejected(self, tmp_path, capsys):
        payload = {
            "d": 1,
            "N": 2,
            "t": 0.05,
            "potentials": [
                {"k": [1], "q": [1], "matrix": [[1.5 if i == j else 0.0 for j in range(4)] for i in range(4)]}
            ],
        }
        path = write_config(tmp_path, payload)
        with pytest.raises(ValueError, match="operator norm 1.5 > 1"):
            build_model(parse_config(path))
        assert main(["--config", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: potential on Rect(k=(1,), q=(1,)) has operator norm 1.5 > 1"]


class TestReadmeSchema:
    """README's config blocks and CSV column list against the parser's key
    sets, so a schema change that misses the README fails here."""

    readme = (Path(__file__).parents[1] / "README.md").read_text()

    def block(self, lead):
        return json.loads(re.search(lead + r".*?```json\n(.*?)```", self.readme, re.S).group(1))

    def test_full_schema_lists_every_key(self):
        full = self.block("Full schema")
        assert set(full) == cli._TOP_KEYS
        assert set(full["tolerances"]) == cli._TOL_KEYS
        assert cli._TOL_KEYS == {f.name for f in dataclasses.fields(Tolerances)}
        assert set(full["checks"]) == cli._CHECK_KEYS
        assert set(full["output"]) == cli._OUTPUT_KEYS
        assert [set(entry) for entry in full["potentials"]] == [cli._POTENTIAL_KEYS]

    def test_minimal_config_parses(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, self.block("Minimal config")))
        assert (cfg.d, cfg.N, cfg.t) == (1, 6, 0.05)

    def test_csv_columns(self):
        listed = re.search(r"CSV columns are\s+fixed:\s+`([^`]*)`", self.readme).group(1)
        assert [name.strip() for name in listed.split(",")] == CSV_COLUMNS

    def test_step_keys(self):
        listed = re.search(r"`steps` list has exactly\s+the keys\s+`([^`]*)`", self.readme)
        rec = StepRecord(Rect((1,), (1,)), g_gap=1.0, e0=0.0)
        keys = list(verify._step_dict(0, rec, Rect((2,), (1,))))
        assert [name.strip() for name in listed.group(1).split(",")] == keys

    def test_report_keys(self):
        def listed(lead):
            names = re.search(lead + r"\s+`([^`]*)`", self.readme).group(1)
            return [name.strip() for name in names.split(",")]

        report = verify.verify_main_theorem(run_flow(random_model(LatticeSpec(1, 2), 2, 0.05, 1)))
        schema = re.search(r'`"schema": "([^"]*)"`', self.readme).group(1)
        assert schema == report["schema"]
        assert listed("returns exactly the top-level keys") == list(report)
        assert listed("`final` object has exactly the keys") == list(report["final"])


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


SXSX = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def _with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix]
    rows[i][j] = value
    return rows


# (the key the error names, config change); each string, boolean and
# non-integer ran to "status: pass" when values were converted with int()
# and dtype=complex, and each non-finite entry was refused as not Hermitian
MISTYPED_ENTRIES = [
    ("potentials[0].k", {"potentials": [{"k": [1.5], "q": [1], "matrix": SXSX}]}),
    ("potentials[0].q", {"potentials": [{"k": [1], "q": ["1"], "matrix": SXSX}]}),
    ("potentials[0].k", {"potentials": [{"k": [True], "q": [1], "matrix": SXSX}]}),
    ("potentials[0].k", {"potentials": [{"k": 1, "q": [1], "matrix": SXSX}]}),
    (
        "potentials[0].matrix",
        {"potentials": [{"k": [1], "q": [1], "matrix": _with_entry(SXSX, 0, 0, "0.5")}]},
    ),
    (
        "potentials[0].matrix",
        {"potentials": [{"k": [1], "q": [1], "matrix": _with_entry(SXSX, 0, 3, True)}]},
    ),
    (
        "potentials[0].matrix",
        {"potentials": [{"k": [1], "q": [1], "matrix": _with_entry(SXSX, 0, 3, [1, "0"])}]},
    ),
    (
        "potentials[0].matrix",
        {"potentials": [{"k": [1], "q": [1], "matrix": _with_entry(SXSX, 0, 0, float("nan"))}]},
    ),
    ("onsite", {"onsite": [[0, 0], [0, "1"]]}),
    ("onsite", {"onsite": [[0, 0], [0, [True, 0]]]}),
    ("onsite", {"onsite": [[0, 0], [0, [float("inf"), 0]]]}),
]


class TestMistypedEntries:
    @pytest.mark.parametrize("key, change", MISTYPED_ENTRIES, ids=json.dumps)
    def test_refused_naming_the_key(self, tmp_path, capsys, key, change):
        path = write_config(tmp_path, {"d": 1, "N": 2, "t": 0.05, **change})
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(path)
        assert main(["--config", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {key}"), lines

    def test_well_typed_entries_parse(self, tmp_path):
        pairs = [[[x, 0.0] for x in row] for row in SXSX]
        payload = {
            "d": 1,
            "N": 2,
            "t": 0.05,
            "onsite": [[0, 0], [0, 1.0]],
            "potentials": [{"k": [1], "q": [1], "matrix": pairs}],
        }
        cfg = parse_config(write_config(tmp_path, payload))
        assert build_model(cfg).potentials[0][0] == Rect((1,), (1,))


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

    @pytest.mark.parametrize(
        "output, argv",
        [
            ({"report": "{missing}/r.json"}, []),
            ({"report": ""}, []),
            ({"csv": "{missing}/x.csv"}, []),
            ({}, ["--emit-csv", "{missing}/x.csv"]),
            ({"report": "{dir}"}, []),
            ({}, ["--emit-csv", "{dir}"]),
            ({"report": "{dir}/r.json", "csv": "{dir}/r.json"}, []),
            ({"report": "{dir}/r.json"}, ["--emit-csv", "{dir}/../{base}/r.json"]),
        ],
        ids=[
            "report",
            "empty report",
            "csv",
            "--emit-csv",
            "directory report",
            "directory --emit-csv",
            "report is csv",
            "report is --emit-csv",
        ],
    )
    def test_unwritable_output_refused_before_the_flow(
        self, tmp_path, capsys, monkeypatch, output, argv
    ):
        names = dict(missing=tmp_path / "missing", dir=tmp_path, base=tmp_path.name)
        monkeypatch.setattr(cli, "run_flow", lambda *a, **k: pytest.fail("the flow ran"))
        output = {key: path.format(**names) for key, path in output.items()}
        payload = {"d": 1, "N": 2, "t": 0.05, "output": output}
        argv = [arg.format(**names) for arg in argv]
        assert main(["--config", write_config(tmp_path, payload), *argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write output"), lines

    def test_oversized_lattice_refused_before_the_flow(self, tmp_path, capsys, monkeypatch):
        # d=2 N=6: verification would form three 2^36 x 2^36 complex matrices
        monkeypatch.setattr(cli, "run_flow", lambda *a, **k: pytest.fail("the flow ran"))
        payload = {"d": 2, "N": 6, "t": 0.02}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: verification forms"), lines
        need = 48 * 2**72
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert f" {need} bytes" in lines[0] and f" {have} bytes" in lines[0]

    def test_write_error_exit_two(self, tmp_path, capsys):
        # the directory exists, but the report path names a directory
        payload = {"d": 1, "N": 2, "t": 0.05, "output": {"report": str(tmp_path)}}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_write_error_after_the_flow_exit_two(self, tmp_path, capsys, monkeypatch):
        # the report's directory passes the check before the flow, then
        # goes away while the flow runs, so the write itself fails
        out = tmp_path / "out"
        out.mkdir()
        report = out / "report.json"
        real_flow = cli.run_flow

        def flow_then_remove(*args, **kwargs):
            state = real_flow(*args, **kwargs)
            out.rmdir()
            return state

        monkeypatch.setattr(cli, "run_flow", flow_then_remove)
        payload = {"d": 1, "N": 3, "t": 0.05, "seed": 1, "output": {"report": str(report)}}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: [Errno 2] "), lines
        assert not report.exists()

    def test_diverging_coupling_exit_two(self, tmp_path, capsys):
        payload = {"d": 1, "N": 2, "t": 3.0, "seed": 1}
        rc = main(["--config", write_config(tmp_path, payload)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: truncation: step defect "), lines

    def test_overflowing_coupling_fails_truncation(self, tmp_path, capsys):
        # at t = 1e30 the series overflows and its step defect is NaN, which
        # the truncation clause fails: apart from numpy's own overflow
        # warnings, one error line, no traceback, no report
        report = tmp_path / "report.json"
        payload = {"d": 1, "N": 3, "t": 1e30, "seed": 1, "output": {"report": str(report)}}
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["--config", write_config(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: truncation: step defect nan at step Rect(k=(1,), q=(1,)), "
            "above tolerance 1e-08"
        ]
        assert "Traceback" not in captured.err + captured.out
        assert not report.exists()

    def test_uncertified_tail_is_a_blank_csv_cell(self, tmp_path):
        # t = 0.05 is outside the certified radius of every edge: those
        # steps report a null tail, which the CSV writes as an empty cell,
        # as it writes an unchecked residual
        report, csv_path = tmp_path / "report.json", tmp_path / "steps.csv"
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.05,
            "seed": 1,
            "checks": {"consistency": "final"},
            "output": {"report": str(report), "csv": str(csv_path)},
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        steps = json.loads(report.read_text())["steps"]
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["tail_bound"] == "" for row in rows] == [
            step["tail_bound"] is None for step in steps
        ]
        assert [row["residual"] == "" for row in rows] == [
            step["residual"] is None for step in steps
        ]
        for row, step in zip(rows, steps):
            assert step["tail_certified"] == (step["tail_bound"] is not None)
            if step["tail_certified"]:
                assert float(row["tail_bound"]) == step["tail_bound"]
        uncertified = [step for step in steps if not step["tail_certified"]]
        assert uncertified and len(uncertified) < len(steps)
        assert all(step["circumference"] == 1 for step in uncertified)

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

    def test_report_judges_residuals_with_the_consistency_tolerance(self, tmp_path):
        # j_max = 3 leaves residuals between the default 1e-8 and the
        # configured 1e-3: the flow accepts them and so must the report
        report = tmp_path / "report.json"
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.05,
            "seed": 1,
            "j_max": 3,
            "tolerances": {"consistency": 1e-3},
            "checks": {"consistency": "every-step"},
            "output": {"report": str(report)},
        }
        main(["--config", write_config(tmp_path, payload)])
        rep = json.loads(report.read_text())
        assert 1e-8 < rep["final"]["max_consistency_residual"] <= 1e-3
        assert not [c for c in rep["failed_clauses"] if c.startswith("consistency:")]

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

    def test_negative_seed_override_refused(self, tmp_path, capsys):
        # the config's seed >= 0 rule holds for the flag too, with or
        # without random potentials
        for potentials in ("random", []):
            payload = {"d": 1, "N": 2, "t": 0.05, "potentials": potentials}
            with pytest.raises(SystemExit) as exc:
                main(["--config", write_config(tmp_path, payload), "--seed", "-5"])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_leaky_onsite_runs_projected(self, tmp_path):
        # a vacuum column of norm 9e-11 passes validation; the flow runs the
        # projected on-site term, so every G fixes the vacuum exactly
        report = tmp_path / "report.json"
        payload = {
            "d": 1,
            "N": 3,
            "t": 0.05,
            "seed": 1,
            "onsite": [[0, 9e-11], [9e-11, 1]],
            "output": {"report": str(report)},
        }
        assert main(["--config", write_config(tmp_path, payload)]) == 0
        rep = json.loads(report.read_text())
        assert rep["status"] == "pass"
        assert rep["final"]["pvac_offblock"] == 0.0

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


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path):
        # the promise covers reruns at one fixed BLAS thread count
        threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = dict(os.environ, PYTHONPATH=str(SRC), **{name: "1" for name in threads})
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
