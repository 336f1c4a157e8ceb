"""Small-size tests of the benchmark: every workload passes its checks, and
every check rejects a deliberately wrong output.

    python3 -m pytest slagbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads
from slag_lab.conjugate import auto_slope_grid, check_sum_rule, conjugate_fast
from slag_lab.fields import PotentialField
from slag_lab.solver import SolverConfig, solve_dirichlet
from slag_lab.operators import ProblemSpec

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 7


def small_round(name, seed=SEED):
    wl = workloads.WORKLOADS[name]
    items = wl.make(seed, wl.small_nodes)
    return wl, items, [wl.run(item) for item in items]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name):
    wl, items, outs = small_round(name)
    for item, out in zip(items, outs):
        assert wl.check(item, out) == []
    assert wl.check_round(items) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = (wl.make(s, wl.small_nodes) for s in (SEED, SEED, SEED + 1))

    def fingerprint(items):
        return [np.asarray(v.values if isinstance(v, PotentialField) else v,
                           dtype=float).sum()
                for item in items for v in item.payload.values()
                if isinstance(v, (PotentialField, np.ndarray))]

    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)


@pytest.mark.parametrize("name", ["rotate-2d", "rotate-3d"])
def test_rotation_shapes_do_not_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    shapes = set()
    for seed in range(4):
        for item in wl.make(seed, wl.small_nodes):
            shapes.add(workloads._core_shape(item.payload["field"].grid,
                                              item.payload["field"].values))
    assert len(shapes) == 1


def _rotated(name, kind):
    wl, items, outs = small_round(name)
    k = [item.kind for item in items].index(kind)
    return items[k], outs[k]


def _with_values(rp, values):
    rp.field = PotentialField(rp.field.grid, values, rp.field.mask)
    return rp


@pytest.mark.parametrize("name", ["rotate-2d", "rotate-3d"])
def test_quadratic_check_rejects_hessian_off_by_1e_4(name):
    item, rp = _rotated(name, "quadratic")
    y = checks.node_coords(rp.field.grid)
    wrong = rp.field.values + 0.5e-4 * y[..., 0] ** 2
    fails = workloads.check_rotation(item, _with_values(rp, wrong))
    assert any("Hessian" in f for f in fails)


@pytest.mark.parametrize("name", ["rotate-2d", "rotate-3d"])
def test_quartic_check_rejects_eigenvalues_outside_window(name):
    item, rp = _rotated(name, "quartic")
    y = checks.node_coords(rp.field.grid)
    wrong = rp.field.values + np.sum(y * y, axis=-1)
    fails = workloads.check_rotation(item, _with_values(rp, wrong))
    assert any("leave [-1, 1]" in f for f in fails)


def test_quartic_check_rejects_values_off_by_1e_7():
    item, rp = _rotated("rotate-2d", "quartic")
    fails = workloads.check_rotation(item, _with_values(rp, rp.field.values + 1e-7))
    assert any("radial conjugate" in f for f in fails)


def test_rotation_check_rejects_a_shrunken_domain():
    item, rp = _rotated("rotate-2d", "quadratic")
    rp.domain.inside = checks.erode(rp.domain.inside, 3)
    assert any("outside the rotated domain" in f
               for f in workloads.check_rotation(item, rp))


def test_domain_check_holds_on_the_3d_lattice_diagonal():
    # at 21^3 the ball's interior ends along the diagonal at |x| = 0.693; on
    # this seed the image of (0.4, 0.4, 0.4) lies on a slope node whose node
    # sup sits on the rim, so the check must leave that node out
    wl = workloads.WORKLOADS["rotate-3d"]
    item = wl.make(201, wl.nodes)[0]
    assert item.kind == "quadratic"
    assert wl.check(item, wl.run(item)) == []


def test_solve_check_rejects_a_solve_stopped_one_step_early():
    wl, items, outs = small_round("solve-2d")
    item, (u, report, sub, sup) = items[0], outs[0]
    assert report.iterations >= 2
    early, early_report = solve_dirichlet(
        item.payload["boundary"], ProblemSpec(dim=2, theta=workloads.THETA),
        item.payload["grid"], SolverConfig(max_iters=report.iterations - 1))
    fails = wl.check(item, (early, early_report, sub, sup))
    assert any("residual" in f for f in fails)


def test_solve_check_rejects_wrong_rim_values():
    wl, items, outs = small_round("solve-2d")
    item, (u, report, sub, sup) = items[0], outs[0]
    values = u.values.copy()
    values[0, 5] += 1e-12
    wrong = PotentialField(u.grid, values, u.mask)
    assert any("rim" in f for f in wl.check(item, (wrong, report, sub, sup)))


def test_conjugate_check_rejects_a_value_off_by_1e_9():
    wl, items, _ = small_round("legendre-2d")
    f = items[0].payload["field"]
    slopes = auto_slope_grid(f)
    star = conjugate_fast(f, slopes).values.copy()
    sample = np.arange(slopes.n_nodes())
    points = checks.node_coords(f.grid)[f.mask]
    assert checks.check_conjugate(points, f.values[f.mask], slopes, star, sample) == []
    star.reshape(-1)[17] += 1e-9
    assert checks.check_conjugate(points, f.values[f.mask], slopes, star, sample)


def test_subgradient_check_rejects_members_three_cells_off():
    p = np.array([[0.5, -0.25]])
    cell = 0.1
    assert checks.check_subgradients([p + [[cell, cell]]], p, cell) == []
    assert checks.check_subgradients([p + [[3 * cell, 0.0]]], p, cell)


def test_sum_rule_check_rejects_an_iterator_count_of_zero():
    # check_sum_rule counts its samples after consuming them, so an
    # iterator reports zero checked nodes; the benchmark passes lists
    wl, items, _ = small_round("legendre-2d")
    p = items[0].payload
    report = check_sum_rule(p["field"], p["kappa"], iter(p["anchors"]))
    assert any("checked 0 of" in f for f in wl.check(items[0], report))


def test_self_time_subtracts_covered_child_time():
    tr = tracing.Tracer()
    tr.spans = [tracing.Span("op", 0.0, 10.0, -1, 1),
                tracing.Span("a", 1.0, 4.0, 0, 1),
                tracing.Span("b", 2.0, 3.0, 1, 1),
                tracing.Span("c", 5.0, 6.5, 0, 1)]
    assert tr.self_times() == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_tracing_wraps_where_callers_look_and_restores():
    import slag_lab.conjugate as conj
    import slag_lab.rotation as rot

    before = (conj.refined_sup, rot.refined_sup, workloads.rotate)
    tr = tracing.Tracer()
    _, items, _ = small_round("rotate-2d")
    with tracing.installed(tr, [workloads]):
        assert rot.refined_sup is conj.refined_sup is not before[0]
        with tr.operation(1):
            workloads.run_rotation(items[0])
    assert (conj.refined_sup, rot.refined_sup, workloads.rotate) == before
    m = tr.layer_metrics(1)
    assert m["conjugate.sup_s"] > 0 and m["conjugate.refine_s"] > 0
    field = items[0].payload["field"]
    assert m["rotation.slope_nodes"] == np.prod(
        workloads._core_shape(field.grid, field.values))
    assert m["fields.fields_built"] >= 1 and m["solver.self_s"] == 0


def test_traced_solve_counts_newton_work():
    tr = tracing.Tracer()
    _, items, _ = small_round("solve-2d")
    with tracing.installed(tr, [workloads]):
        with tr.operation(1):
            _, report, _, _ = workloads.run_solve(items[0])
    m = tr.layer_metrics(1)
    assert m["solver.newton_iters"] == report.iterations
    # the Poisson guess plus one solve per Newton step
    assert m["solver.linear_solves"] == report.iterations + 1
    assert m["solver.residual_evals"] >= report.iterations + 1
    assert m["solver.linear_solve_s"] > 0 and m["audits.jet_check_s"] > 0


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s", "peak_rss_mb"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "slagbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "legendre-2d", "--seed", "3",
                "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "slagbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "solve-2d", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
