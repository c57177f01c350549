#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark binary from source (perfbench/
CMakeLists.txt, into perfbench/build/), runs one workload (or all three in
turn), checks the simulated outputs against the recorded fingerprint in
perfbench/fingerprints.json, validates exported files, prints every metric
by name with its unit, and prints one JSON object as the last line:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every op succeeded and
matched its fingerprint.

    python3 perfbench/run.py --record --workload <name|all> [--seeds 0-63]

re-records the fingerprints (a change that alters simulated results on
purpose does this as its own benchmark change).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "camdn_perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ["paper_sweep", "fleet_serving", "observed_poisson"]
# Printed beside the gated metrics. Simulated cycles per host second
# follows each seed's makespan tail (a max over tenants), which moves far
# more across seeds than the host work does, so it is not gated.
UNGATED_UNITS = {"sim_mcycles_per_s": "Mcycle/s"}
# Safety net on one benchmark process; a run normally ends in well under a
# minute past --seconds.
BINARY_TIMEOUT_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; build output goes to stderr so
    stdout keeps the result as its last line."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD] + gen,
                           stdout=sys.stderr, check=True)
        jobs = str(os.cpu_count() or 1)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def metric_specs(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(workload, seed, seconds, trace, min_ops=None, timeout=None):
    os.makedirs(OUT, exist_ok=True)
    result = os.path.join(OUT, "result_%s.json" % workload)
    if os.path.exists(result):
        os.remove(result)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT]
    if min_ops is not None:
        cmd += ["--min-ops", str(min_ops)]
    sys.stdout.flush()
    subprocess.run(cmd, check=True, timeout=timeout)
    return load_json(result)


def check_exports(paths):
    """Every exported file must parse: JSON documents whole, JSONL per line."""
    for path in paths:
        with open(path) as f:
            if path.endswith(".jsonl"):
                for n, line in enumerate(f, 1):
                    try:
                        json.loads(line)
                    except ValueError as e:
                        return "%s line %d: %s" % (path, n, e)
            else:
                try:
                    json.load(f)
                except ValueError as e:
                    return "%s: %s" % (path, e)
    return None


def first_difference(recorded, got):
    for r, g in zip(recorded["units"], got["units"]):
        for k in r:
            if r[k] != g.get(k):
                return "%s.%s recorded %s, got %s" % (r["name"], k, r[k], g.get(k))
    return "unit lists differ"


def judge(res, seed):
    """Applies the fingerprint and export checks to one binary result and
    returns (failed op count, notes)."""
    failed = res["failed"]
    notes = list(res["failures"])
    fp = res["fingerprint"]
    recorded = load_json(FINGERPRINTS).get(res["workload"], {}).get(str(seed))
    if fp is None:
        notes.append("no op completed")
        failed = res["attempted"]
    elif recorded is None:
        notes.append("no recorded fingerprint for seed %d: checked repeat "
                     "bit-identity and invariants only" % seed)
    elif recorded != fp:
        notes.append("FINGERPRINT MISMATCH: " + first_difference(recorded, fp))
        failed = res["attempted"]
    else:
        notes.append("fingerprint matches the recorded one for seed %d" % seed)
    bad = check_exports(res["exports"]) if fp is not None else None
    if bad:
        # Every op exported byte-identical files (the export hash is part
        # of the fingerprint), so an invalid export fails them all.
        notes.append("INVALID EXPORT: " + bad)
        failed = res["attempted"]
    return failed, notes


def report(res, failed, notes, trace):
    attempted = res["attempted"]
    print("\n%s seed %d (%s): %d ops attempted, %d failed, fail_frac %.4f ratio"
          % (res["workload"], res["seed"], "traced" if trace else "bare",
             attempted, failed, failed / attempted if attempted else 1.0))
    for n in notes:
        print("  " + n)
    metrics = {}
    specs = metric_specs(trace)
    for m in specs:
        value = res["metrics"].get(m["name"])
        print("  %-34s %16.6f %-9s%s" % (m["name"], value or 0.0, m["unit"],
                                          "" if value is not None else " n/a on this workload"))
        metrics[m["name"]] = {"value": value if value is not None else 0,
                              "unit": m["unit"]}
    gated = {m["name"] for m in specs}
    for name, value in sorted(res["metrics"].items()):
        if name not in gated:
            print("  %-34s %16.6f %-9s (reported, not gated)"
                  % (name, value, UNGATED_UNITS.get(name, "")))
    return metrics


def record(names, seeds):
    build()
    prints = load_json(FINGERPRINTS) if os.path.exists(FINGERPRINTS) else {}
    for w in names:
        prints[w] = {}
        for seed in seeds:
            res = run_binary(w, seed, 0.001, 0, min_ops=0)
            if res["failed"] or res["fingerprint"] is None:
                sys.exit("record: %s seed %d failed: %s" % (w, seed, res["failures"]))
            prints[w][str(seed)] = res["fingerprint"]
            log("recorded %s seed %d" % (w, seed))
    with open(FINGERPRINTS, "w") as f:
        json.dump(prints, f, indent=0, sort_keys=True)
        f.write("\n")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # The seed used when --seed is omitted, and one held back for
    # confirming a claimed gain on inputs not used while writing it.
    ap.add_argument("--default-seed", type=int, default=42)
    ap.add_argument("--confirm-seed", type=int, default=7)
    ap.add_argument("--confirm", action="store_true",
                    help="run with the confirm seed")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", default="0-63")
    args = ap.parse_args()

    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.record:
        record(names, parse_seeds(args.seeds))
        return 0
    seed = args.confirm_seed if args.confirm else (
        args.seed if args.seed is not None else args.default_seed)
    seconds = args.seconds if args.seconds is not None else load_json(
        os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            res = run_binary(name, seed, seconds, args.trace,
                             timeout=BINARY_TIMEOUT_S)
        except (OSError, ValueError, subprocess.SubprocessError) as e:
            log("perfbench: %s did not produce a result: %s" % (name, e))
            return 2
        f, notes = judge(res, seed)
        got = report(res, f, notes, args.trace)
        attempted += res["attempted"]
        failed += f
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({"%s.%s" % (name, k): v for k, v in got.items()})

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
