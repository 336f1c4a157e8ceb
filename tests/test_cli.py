"""CLI flows: subcommands, experiment runner, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import slag_lab
from slag_lab.audits import check_supersolution
from slag_lab.cli import main
from slag_lab import experiments
from slag_lab.experiments import (
    REGISTRY,
    ExperimentConfig,
    _margin_report,
    exp_subharmonicity,
    parse_config,
    run_all,
)
from slag_lab.fileio import load_field, read_pf1
from slag_lab.reports import AuditReport
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
        cfg.write_text("max_iters = -3\n")
        assert run_cli(*solve) == 2
        err = capsys.readouterr().err
        assert "max_iters must be a nonnegative integer" in err
        assert not (tmp_path / "s.pf1").exists()
        # grids of fewer than 3 nodes per axis, and spacings that are not
        # finite and positive, fail with one line before any division
        x = str(tmp_path / "x.pf1")
        for grid_args, message in ((("--grid", "1"), "at least 3 nodes"),
                                   (("--h", "0"), "--h must be finite"),
                                   (("--h", "nan"), "--h must be finite"),
                                   (("--h", "10"), "at least 3 nodes")):
            assert run_cli("sample", "--formula", "iso-quad:1", *grid_args,
                           "--out", x) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err
        assert not (tmp_path / "x.pf1").exists()
        # a point of the wrong dimension is named as such
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "17",
                "--out", str(u))
        capsys.readouterr()
        assert run_cli("subdiff", "--in", str(u), "--point", "0,0,0") == 2
        assert "has 3 coordinates, the field is 2-D" in capsys.readouterr().err
        # NaN or negative tolerances and slacks fail with one line before
        # any work; so does a tolerance below every Fenchel gap, here at
        # least h^2/2 at (h, 0)
        v = str(tmp_path / "v.pf1")
        q = str(tmp_path / "q.pf1")
        run_cli("sample", "--formula", "quad:1,0,2", "--grid", "17", "--out", q)
        capsys.readouterr()
        for argv, message in (
                (("conjugate", "--in", str(u), "--out", v, "--tol", "nan"),
                 "finite and nonnegative"),
                (("subdiff", "--in", str(u), "--point", "0,0", "--tol", "-1"),
                 "finite and nonnegative"),
                (("subdiff", "--in", str(u), "--point", "0,0", "--tol", "nan"),
                 "finite and nonnegative"),
                (("audit", "--check", "coeffs", "--spectrum", "3,-0.9",
                  "--m", "1", "--tol", "nan"), "finite and nonnegative"),
                (("audit", "--check", "bm", "--in", str(u), "--slack", "nan"),
                 "slack must be nonnegative"),
                (("subdiff", "--in", q, "--point", "0.125,0", "--tol", "0"),
                 "leaves no slope node")):
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err
        assert not (tmp_path / "v.pf1").exists()

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

    @pytest.mark.parametrize("delta", ["-1", "0", "nan"])
    def test_delta_that_is_not_positive_exits_1(self, tmp_path, capsys,
                                                delta):
        u = tmp_path / "u.pf1"
        run_cli("sample", "--formula", "iso-quad:1", "--grid", "17",
                "--out", str(u))
        capsys.readouterr()
        assert run_cli("rotate", "--alpha", "0.7", "--delta", delta,
                       "--in", str(u), "--out", str(tmp_path / "v.pf1")) == 1
        assert "delta must be positive" in capsys.readouterr().err
        assert not (tmp_path / "v.pf1").exists()

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
        cfg, outdir = parse_config(cfg_text)
        assert cfg.name == "zero-potential"
        assert cfg.seed == 7
        assert cfg.overrides["grid"] == 33
        assert outdir is None
        path = tmp_path / "exp.cfg"
        path.write_text(cfg_text)
        assert run_cli("run", "--config", str(path),
                       "--outdir", str(tmp_path / "out")) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "zero-potential[spectrum]" in summary

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            parse_config("grid = 33\n")

    def test_config_outdir_key_places_the_artifacts(self, tmp_path):
        out = tmp_path / "from-file"
        path = tmp_path / "exp.cfg"
        path.write_text(f"name = zero-potential\ngrid = 33\noutdir = {out}\n")
        assert run_cli("run", "--config", str(path)) == 0
        assert (out / "zero-potential.json").exists()
        # --outdir wins over the file's key
        other = tmp_path / "from-flag"
        assert run_cli("run", "--config", str(path), "--outdir", str(other)) == 0
        assert (other / "summary.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ("gird = 33", "unknown config key 'gird'"),
        ("grid = 33.9", "'grid' needs an integer"),
        ("samples = 1e5", "'samples' needs an integer"),
        ("seed = 7.5", "'seed' needs an integer"),
    ])
    def test_unusable_config_keys_exit_2(self, tmp_path, capsys, line,
                                          message):
        with pytest.raises(ValueError, match=message):
            parse_config(f"name = zero-potential\n{line}\n")
        path = tmp_path / "exp.cfg"
        path.write_text(f"name = zero-potential\n{line}\n")
        assert run_cli("run", "--config", str(path),
                       "--outdir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_artifacts_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            _, passed = run_all(
                [ExperimentConfig("zero-potential", overrides={"grid": 33})],
                out)
            assert passed
        payloads = []
        for out in (out1, out2):
            data = json.loads((out / "zero-potential.json").read_text())
            data.pop("timestamp")
            payloads.append(json.dumps(data, sort_keys=True))
        assert payloads[0] == payloads[1]
        field = load_field(out1 / "rotated_zero.pf1")
        assert field.grid.dim == 2

    def test_report_json_schema(self, tmp_path):
        run_all([ExperimentConfig("zero-potential", overrides={"grid": 33})],
                tmp_path)
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

    def test_parallel_run_writes_one_summary_header(self, tmp_path):
        # two experiments run one after another on the calling thread and
        # share one summary.csv
        def started(thread):
            raise AssertionError("run_all started a thread")

        configs = [ExperimentConfig("zero-potential"),
                   ExperimentConfig("coefficient-audit")]
        with mock.patch("threading.Thread.start", started):
            results, _ = run_all(configs, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines.count("name,checked_nodes,min_margin,passed") == 1
        assert len(lines) == 1 + sum(len(r.reports) for r in results)


class TestVerdicts:
    @pytest.mark.parametrize("worst", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_deviation_fails(self, worst):
        rep = _margin_report("x", 1, worst, 1e-6, "q")
        assert not rep.passed
        assert rep.violations[0][1] == "q"

    def test_a_finite_deviation_within_the_allowance_passes(self):
        rep = _margin_report("x", 1, 5e-7, 1e-6, "q")
        assert rep.passed and rep.min_margin == 1e-6 - 5e-7

    def test_a_trial_that_checks_no_node_fails_criterion_9(self):
        # the trial's "hypothesis never satisfied" report checks 0 nodes
        # with a NaN margin; the solves and rotations are skipped
        def vacuous(*args, **kwargs):
            return AuditReport(name="subharmonicity", checked_nodes=0,
                               min_margin=math.nan)

        with mock.patch.object(experiments, "solve_dirichlet",
                               lambda data, spec, grid: (None, None)), \
                mock.patch.object(experiments, "rotate",
                                  lambda u, params: None), \
                mock.patch.object(experiments, "subharmonicity_trial",
                                  vacuous):
            result = exp_subharmonicity(ExperimentConfig("subharmonicity"))
        families = [r for r in result.reports
                    if r.name in ("subharmonicity[quartic-data]",
                                  "subharmonicity[biaxial-data]")]
        assert len(families) == 2
        assert not any(r.passed for r in families)
