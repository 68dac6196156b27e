"""Run the benchmark over several seeds and summarize it as a BENCH file.

    python3 benchmarks/sweep.py --seeds 1-10 --seconds 45 --out benchmarks/BENCH_x.json

For each workload: one untraced run per seed, then one traced run on the
first seed.  The summary keeps, per end-to-end metric, the ten values,
their median and quartiles and the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``); per-layer metrics and
workload properties come from the traced run.  Runs one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if trace == 0), file=sys.stderr)
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default the workloads in BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    out_path = Path(args.out)
    # workloads already in the file and not swept now are kept
    out = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    for name in names:
        runs = [run(name, seed, args.seconds, 0) for seed in seeds]
        traced = run(name, seeds[0], args.seconds, 1)
        out["environment"] = traced["record"]["environment"]
        out["workloads"][name] = {
            "seconds": args.seconds,
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in bench["end_to_end"]},
            "subcommands": {k: summarize([r["record"]["info"][k] for r in runs])
                            for k in runs[0]["record"]["info"]
                            if k.endswith("_s") or k == "replicates_per_s"},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "properties": traced["record"]["properties"],
        }
        out_path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
