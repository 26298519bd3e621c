#!/usr/bin/env python3
"""Records the benchmark's baseline: runs every workload of BENCHMARK.json
untraced once for each of seeds 1-10, then once traced at the default
seed, and writes each end-to-end metric's median and quartiles and the
traced per-layer table to benchmark/baseline.json.

Run from the root of a checkout:

    python3 benchmark/baseline.py                               # set 1
    python3 benchmark/baseline.py --out .bench_build/set2.json  # set 2

A second set written elsewhere is compared with the first by hand. A
spread is the distance between the first and third quartile of a
metric's values, as a share of their median. The script flags every
spread above a third of the metric's bound, and exits 1 when a run is
incorrect or a spread exceeds the bound itself. setup_s is exempt from
the spread check, as in the benchmark's acceptance rules: it times
windows of about 0.07 s on three workloads, which host load swings by
half from one minute to the next, so only its median is compared
between two sets. Each run checks its own result digests against
pins.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

DEFAULT_SEED = "0xF00D"
SEEDS = list(range(1, 11))


def run(spec, workload, seed, traced):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if traced else "0",
    ]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="benchmark/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "host": f"{cpu_model()}, {os.cpu_count()} CPUs, {platform.system()}",
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        values, correct = {}, True
        for seed in SEEDS:
            res = run(spec, name, seed, traced=False)
            correct &= res["correct"] and res["failed"] == 0
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(name, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        e2e = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            e2e[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds[k], "values": vs}
            flag = ""
            if spread > bounds[k] / 3:
                flag = "  above bound/3"
            if spread > bounds[k] and k != "setup_s":
                flag = "  ABOVE BOUND"
                ok = False
            print(f"  {name:13s} {k:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:.4f} (bound {bounds[k]}){flag}", flush=True)
        traced = run(spec, name, DEFAULT_SEED, traced=True)
        correct &= traced["correct"] and traced["failed"] == 0
        for k, v in sorted(traced["metrics"].items()):
            print(f"  {name:13s} {k:32s} {v['value']:14.6g} {v['unit']}", flush=True)
        ok &= correct
        out["workloads"][name] = {
            "correct": correct,
            "end_to_end": e2e,
            "per_layer_default_seed": {k: v["value"] for k, v in sorted(traced["metrics"].items())},
        }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
