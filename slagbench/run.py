"""Run one slag-lab benchmark workload and print its metrics as JSON.

    python3 slagbench/run.py --workload rotate-2d --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (setup_s, op_s, peak_rss_mb); with
`--trace 1` they are the per-layer ones, and the spans are written to
slagbench/out/. See slagbench/README.md for what each workload does.
"""

import os
import sys
import time

# pinned before numpy loads: on two shared cores, BLAS threads add spread
# without adding speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
from contextlib import nullcontext
import json
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# fresh processes whose set-up is timed; setup_s is their median
SETUP_REPEATS = 3


def _import_program():
    """Import slag_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "slag_lab" / "__init__.py").is_file():
        sys.exit(f"slagbench: no slag_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slag_lab

    if not Path(slag_lab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"slagbench: slag_lab imported from {slag_lab.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="exit after set-up, before the first timed operation")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def time_setups(argv: list[str]) -> list[float]:
    """Wall time of SETUP_REPEATS fresh `--setup-only` processes.

    Each covers interpreter start, imports, input generation and the
    warm-up round: a process's time up to its first timed operation.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        out.append(time.perf_counter() - t)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    _import_program()
    import workloads
    from tracing import PER_LAYER, Tracer, installed

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"slagbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    setups = [] if args.trace or args.setup_only else time_setups(argv)

    # set-up: the full-size inputs, then one untimed warm-up round at a
    # small size
    items = wl.make(args.seed, wl.nodes)
    for item in wl.make(args.seed, wl.warm_nodes):
        wl.run(item)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    times, kinds, fails = [], [], []
    attempted = failed = 0
    t_run = time.perf_counter()
    with (installed(tracer, [workloads]) if tracer else nullcontext()):
        while True:
            for item in items:
                attempted += 1
                with (tracer.operation(attempted) if tracer else nullcontext()):
                    t = time.perf_counter()
                    try:
                        out = wl.run(item)
                    except Exception:
                        failed += 1
                        print(f"slagbench: {item.kind} operation failed", file=sys.stderr)
                        traceback.print_exc()
                        continue
                    finally:
                        elapsed = time.perf_counter() - t
                times.append(elapsed)
                kinds.append(item.kind)
                fails += wl.check(item, out)
            if time.perf_counter() - t_run >= args.seconds:
                break
    fails += wl.check_round(items)
    for msg in fails[:10]:
        print(f"slagbench: check failed: {msg}", file=sys.stderr)
    if not times:
        sys.exit("slagbench: every operation failed")

    op_s = statistics.median(times)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"run-{tag}.json").write_text(json.dumps({
        "setup_s": setups,
        "op_s": times, "op_kinds": kinds, "check_failures": fails}))
    if tracer:
        tracer.dump(out_dir / f"spans-{tag}.json", t_run)
        values = tracer.layer_metrics(attempted)
        values["trace.op_s"] = op_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps({"correct": not fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
