"""CLI flows: subcommands, experiment runner, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slag_lab
from slag_lab.audits import check_supersolution
from slag_lab.cli import main
from slag_lab.experiments import (
    REGISTRY,
    ExperimentConfig,
    max_workers,
    parse_config,
    run_all,
    run_experiment,
)
from slag_lab.fileio import load_field, read_pf1
from slag_lab.rotation import RotationParams, rotate


def run_cli(*argv):
    return main(list(argv))


class TestSubcommands:
    def test_sample_solve_audit_chain(self, tmp_path):
        u = tmp_path / "u.pf1"
        sol = tmp_path / "sol.pf1"
        rep = tmp_path / "rep.json"
        assert run_cli("sample", "--formula", "iso-quad:1", "--grid", "33",
                       "--out", str(u)) == 0
        assert run_cli("solve", "--theta", str(np.pi / 2), "--grid", "33",
                       "--boundary", "iso-quad:1", "--out", str(sol),
                       "--report", str(rep)) == 0
        payload = json.loads(rep.read_text())
        assert payload["converged"] is True
        assert payload["stop_reason"] == "converged"
        assert payload["schema_version"] == 4
        assert set(payload) == {"schema_version", "iterations",
                                "final_residual", "converged", "stop_reason",
                                "convexity_breached", "step_history",
                                "min_eigen_history", "linear_solve_s",
                                "krylov_iterations"}
        assert run_cli("audit", "--check", "super", "--in", str(sol),
                       "--theta", str(np.pi / 2)) == 0

    def test_audit_failure_forces_nonzero_exit(self, tmp_path):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:3", "--grid", "33",
                "--out", str(u))
        # a strict subsolution is not a supersolution
        assert run_cli("audit", "--check", "super", "--in", str(u),
                       "--theta", str(np.pi / 2)) == 1

    def test_rotate_emits_domain_mask(self, tmp_path):
        u = tmp_path / "u.pf1"
        out = tmp_path / "ubar.pf1"
        run_cli("sample", "--formula", "iso-quad:3", "--grid", "33",
                "--out", str(u))
        assert run_cli("rotate", "--alpha", str(np.pi / 4), "--in", str(u),
                       "--out", str(out)) == 0
        _, mask_vals, kind = read_pf1(tmp_path / "ubar.mask.pf1")
        assert kind == "mask"
        rp = rotate(load_field(u), RotationParams.from_alpha(np.pi / 4))
        assert np.array_equal(mask_vals, rp.domain.inside.astype(float))
        assert not (tmp_path / "ubar.domain.pf1").exists()

    def test_verbose_shows_the_log_lines_on_stderr(self, tmp_path):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "quartic:1", "--grid", "17",
                "--out", str(u))
        env = {**os.environ,
               "PYTHONPATH": str(Path(slag_lab.__file__).resolve().parents[1])}
        script = "import sys; from slag_lab.cli import main; sys.exit(main())"
        runs = [subprocess.run(
            [sys.executable, "-c", script, *flags, "conjugate", "--in", str(u),
             "--out", str(tmp_path / "star.pf1")],
            capture_output=True, text=True, env=env, check=True)
            for flags in ((), ("--verbose",))]
        quiet, loud = runs
        assert "hull pass" not in quiet.stderr
        # one line per pass of the separable transform, one pass per axis
        assert loud.stderr.count("hull pass") == 2
        assert loud.stdout == quiet.stdout

    def test_convert_round_trip(self, tmp_path):
        u = tmp_path / "u.pf1"
        c = tmp_path / "u.csv"
        back = tmp_path / "u2.pf1"
        run_cli("sample", "--formula", "quartic:1", "--grid", "17",
                "--out", str(u))
        assert run_cli("convert", "--in", str(u), "--out", str(c)) == 0
        assert run_cli("convert", "--in", str(c), "--out", str(back)) == 0
        _, v1, _ = read_pf1(u)
        _, v2, _ = read_pf1(back)
        assert v1.tobytes() == v2.tobytes()

    def test_residual_variants(self, tmp_path):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "33",
                "--out", str(u))
        for variant, level in (("slag", str(np.pi / 2)), ("ma", "0.0")):
            out = tmp_path / f"r_{variant}.pf1"
            flag = "--theta" if variant == "slag" else "--phi"
            assert run_cli("residual", "--variant", variant, flag, level,
                           "--in", str(u), "--out", str(out)) == 0
            _, vals, _ = read_pf1(out)
            assert np.nanmax(np.abs(vals)) < 1e-9

    def test_unknown_formula_exits_2(self, tmp_path):
        assert run_cli("sample", "--formula", "nope", "--grid", "17",
                       "--out", str(tmp_path / "x.pf1")) == 2

    def test_compute_failure_exits_1(self, tmp_path):
        # a concave field has no semiconvexity margin for the rotation
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:-3", "--grid", "17",
                "--out", str(u))
        assert run_cli("rotate", "--alpha", str(np.pi / 4), "--in", str(u),
                       "--out", str(tmp_path / "v.pf1")) == 1

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        assert run_cli("audit", "--check", "coeffs") == 2
        cfg = tmp_path / "solver.cfg"
        solve = ("solve", "--theta", "1.0", "--grid", "17", "--boundary",
                 "iso-quad:1", "--config", str(cfg),
                 "--out", str(tmp_path / "s.pf1"))
        cfg.write_text("max_iters = 5  # cap\n\nresidual_tol\n")
        assert run_cli(*solve) == 2
        assert "line 3: expected key=value" in capsys.readouterr().err
        cfg.write_text("newton_steps = 5\n")
        assert run_cli(*solve) == 2
        # out-of-range values fail the config's own checks before a solve
        cfg.write_text("damping = 2\nmin_step = 5\n")
        assert run_cli(*solve) == 2
        assert "need 0 < min_step <= damping <= 1" in capsys.readouterr().err
        cfg.write_text("residual_tol = -1\n")
        assert run_cli(*solve) == 2
        assert "residual_tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "s.pf1").exists()

    @pytest.mark.parametrize("alpha", ["2", "0", "-0.5", str(np.pi / 2), "nan"])
    def test_angle_outside_the_open_quarter_turn_exits_2(self, tmp_path,
                                                          capsys, alpha):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "17",
                "--out", str(u))
        capsys.readouterr()
        assert run_cli("rotate", "--alpha", alpha, "--in", str(u),
                       "--out", str(tmp_path / "v.pf1")) == 2
        assert "angle must lie in (0, pi/2)" in capsys.readouterr().err
        assert not (tmp_path / "v.pf1").exists()
        assert run_cli("audit", "--check", "rotation-super", "--in", str(u),
                       "--alpha", alpha) == 2

    def test_hessian_bound_audit_takes_the_tolerance(self, tmp_path):
        # a phase 1e-6 above that of |x|^2/2 makes the harness's
        # subsolution precondition fail at the default 1e-8 tolerance
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "33",
                "--out", str(u))
        audit = ("audit", "--check", "hessian-bound", "--in", str(u),
                 "--theta", str(np.pi / 2 + 1e-6))
        assert run_cli(*audit) == 1
        assert run_cli(*audit, "--tol", "1e-5") == 0

    def test_audit_rejects_a_zero_tolerance(self, tmp_path):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "17",
                "--out", str(u))
        assert run_cli("audit", "--check", "super", "--in", str(u),
                       "--theta", str(np.pi / 2), "--tol", "0") == 2

    def test_coefficient_audit_takes_the_tolerance(self):
        # lambda = (1.5, -0.9), m = 1: the top_low coefficient is -0.4375
        audit = ("audit", "--check", "coeffs", "--spectrum", "1.5,-0.9")
        assert run_cli(*audit) == 1
        assert run_cli(*audit, "--tol", "0.5") == 0

    def test_rotate_then_audit_reads_the_domain_mask(self, tmp_path):
        u = tmp_path / "q.pf1"
        out = tmp_path / "rq.pf1"
        rep = tmp_path / "rep.json"
        run_cli("sample", "--formula", "quartic:1", "--grid", "33",
                "--out", str(u))
        assert run_cli("rotate", "--alpha", str(np.pi / 4), "--in", str(u),
                       "--out", str(out)) == 0
        run_cli("audit", "--check", "super", "--in", str(out),
                "--json", str(rep))
        rp = rotate(load_field(u), RotationParams.from_alpha(np.pi / 4))
        assert int(rp.domain.inside.sum()) == 673
        assert np.array_equal(load_field(out).mask, rp.domain.inside)
        want = check_supersolution(rp.field, 0.0).to_json()
        assert json.loads(rep.read_text()) == json.loads(json.dumps(want))

    def test_convert_bad_csv_exits_2(self, tmp_path, capsys):
        u = tmp_path / "u.pf1"
        c = tmp_path / "u.csv"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "9",
                "--out", str(u))
        run_cli("convert", "--in", str(u), "--out", str(c))
        lines = c.read_text().splitlines()
        c.write_text("\n".join(lines[:-1] + [lines[-1][:3]]) + "\n")
        assert run_cli("convert", "--in", str(c),
                       "--out", str(tmp_path / "v.pf1")) == 2
        assert "CSV line" in capsys.readouterr().err

    def test_convert_csv_with_missing_rows_exits_2(self, tmp_path, capsys):
        u = tmp_path / "u.pf1"
        c = tmp_path / "u.csv"
        run_cli("sample", "--formula", "quartic:1", "--grid", "17",
                "--out", str(u))
        run_cli("convert", "--in", str(u), "--out", str(c))
        lines = c.read_text().splitlines()
        c.write_text("\n".join(lines[:-40]) + "\n")
        assert run_cli("convert", "--in", str(c),
                       "--out", str(tmp_path / "v.pf1")) == 2
        assert "no row for node (14, 11)" in capsys.readouterr().err

    def test_convert_csv_with_trailing_blank_lines_exits_0(self, tmp_path):
        u = tmp_path / "u.pf1"
        c = tmp_path / "u.csv"
        back = tmp_path / "v.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "5",
                "--out", str(u))
        run_cli("convert", "--in", str(u), "--out", str(c))
        c.write_text(c.read_text() + "\n\n")
        assert run_cli("convert", "--in", str(c), "--out", str(back)) == 0
        assert read_pf1(back)[1].tobytes() == read_pf1(u)[1].tobytes()

    def test_conjugate_kind_survives_a_csv_round_trip(self, tmp_path):
        u = tmp_path / "u.pf1"
        star = tmp_path / "star.pf1"
        c = tmp_path / "star.csv"
        back = tmp_path / "back.pf1"
        run_cli("sample", "--formula", "quartic:1", "--grid", "17",
                "--out", str(u))
        assert run_cli("conjugate", "--in", str(u), "--out", str(star)) == 0
        assert run_cli("convert", "--in", str(star), "--out", str(c)) == 0
        assert run_cli("convert", "--in", str(c), "--out", str(back)) == 0
        _, v1, kind1 = read_pf1(star)
        _, v2, kind2 = read_pf1(back)
        assert kind1 == kind2 == "conjugate"
        assert v1.tobytes() == v2.tobytes()

    def test_rotation_preservation_audits(self, tmp_path):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "33",
                "--out", str(u))
        assert run_cli("audit", "--check", "rotation-super", "--in", str(u),
                       "--theta", str(np.pi / 2)) == 0
        assert run_cli("audit", "--check", "rotation-sub", "--in", str(u),
                       "--theta", str(np.pi / 2), "--eps", "2,4") == 0


class TestExperimentRunner:
    def test_config_file_round_trip(self, tmp_path):
        cfg_text = "name = zero-potential\nseed = 7\ngrid = 33\n"
        cfg = parse_config(cfg_text)
        assert cfg.name == "zero-potential"
        assert cfg.seed == 7
        assert cfg.overrides["grid"] == 33.0
        path = tmp_path / "exp.cfg"
        path.write_text(cfg_text)
        assert run_cli("run", "--config", str(path),
                       "--outdir", str(tmp_path / "out")) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "zero-potential[spectrum]" in summary

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            parse_config("grid = 33\n")

    def test_artifacts_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            res = run_experiment(
                ExperimentConfig("zero-potential", outdir=out,
                                 overrides={"grid": 33})
            )
            assert res.passed
        payloads = []
        for out in (out1, out2):
            data = json.loads((out / "zero-potential.json").read_text())
            data.pop("timestamp")
            payloads.append(json.dumps(data, sort_keys=True))
        assert payloads[0] == payloads[1]
        field = load_field(out1 / "rotated_zero.pf1")
        assert field.grid.dim == 2

    def test_report_json_schema(self, tmp_path):
        res = run_experiment(
            ExperimentConfig("zero-potential", outdir=tmp_path,
                             overrides={"grid": 33})
        )
        data = json.loads((tmp_path / "zero-potential.json").read_text())
        for rep in data["reports"]:
            assert set(rep) == {"name", "checked_nodes", "violations",
                                "min_margin", "passed"}

    def test_exit_status_contract(self, tmp_path):
        assert run_cli("run", "--experiment", "zero-potential") == 0
        assert run_cli("run") == 2

    def test_rerun_rewrites_the_same_summary(self, tmp_path):
        out = tmp_path / "out"
        summaries = []
        for _ in range(2):
            assert run_cli("run", "--experiment", "zero-potential",
                           "--outdir", str(out)) == 0
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

    def test_parallel_run_writes_one_summary_header(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("SLAG_LAB_THREADS", raising=False)
        results, _ = run_all(outdir=tmp_path, parallel=2,
                             names=["zero-potential", "coefficient-audit"])
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines.count("name,checked_nodes,min_margin,passed") == 1
        assert len(lines) == 1 + sum(len(r.reports) for r in results)


class TestThreadCap:
    def test_cap_applies(self, monkeypatch):
        monkeypatch.delenv("SLAG_LAB_THREADS", raising=False)
        assert max_workers(4) == 4
        monkeypatch.setenv("SLAG_LAB_THREADS", "1")
        assert max_workers(4) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_cap_rejected_before_any_pool(self, monkeypatch, value):
        monkeypatch.setenv("SLAG_LAB_THREADS", value)
        with pytest.raises(ValueError, match="SLAG_LAB_THREADS"):
            max_workers(2)

        def started(cfg):
            raise AssertionError("an experiment started")

        monkeypatch.setitem(REGISTRY, "zero-potential", started)
        with pytest.raises(ValueError, match="SLAG_LAB_THREADS"):
            run_all(names=["zero-potential"], parallel=2)
