"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 slagbench/repeat.py --workloads rotate-2d,solve-2d --seeds 1-10 --label a

Runs `slagbench/run.py` once per (workload, seed), one process at a time,
with the run length from BENCHMARK.json. For every metric it prints the
median, the first and third quartiles (`statistics.quantiles(n=4)`) and
their distance as a share of the median, which is the spread the
benchmark's bounds are compared against. Raw results go to
slagbench/out/repeat-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="latest")
    args = p.parse_args()

    runs = []
    for name in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "wall_s": wall, **result})
            print(f"{name} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}",
                  flush=True)

    report = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        report[name] = {
            metric: summary([r["metrics"][metric]["value"] for r in mine])
            for metric in mine[0]["metrics"]
        }
        report[name]["wall_s"] = summary([r["wall_s"] for r in mine])
        print(f"\n{name}: {len(mine)} runs, all correct: "
              f"{all(r['correct'] for r in mine)}")
        for metric, s in report[name].items():
            print(f"  {metric:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f} %")
    out = BENCH / "out" / f"repeat-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
