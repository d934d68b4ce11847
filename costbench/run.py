#!/usr/bin/env python3
"""B15 "cost of a run": host time and memory of six workloads, end to end
and layer by layer.

Run from the root of the repository:

    python3 costbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 costbench/run.py [--workload W ...] [--seed S ...] [--smoke] [--out FILE]

The script builds costbench/cost.exe with dune, then runs each workload in
fresh cost.exe processes, one process at a time, round-robin across
workloads so that drift hits all of them alike. With --seconds a workload
repeats until it has used that much time (untraced and traced runs
alternate under --trace 1); otherwise it runs 5 times untraced and once
traced. --smoke runs every workload at about 1/20 size, once untraced and
once traced, on seeds 42 and 7, and checks that every metric BENCHMARK.json
declares is emitted.

End-to-end metrics are medians over the untraced runs. Per-layer metrics
come from the traced runs, whose layer wrappers cost time of their own
(trace.overhead). Names and units are the ones BENCHMARK.json declares.

Output: a table per workload, then as the last line one JSON object with
"correct", "attempted", "failed" and "metrics" (end-to-end with --trace 0,
per-layer with --trace 1) when one workload and one seed ran, or a verdict
line otherwise. --out writes every value, for compare.py.

A run is incorrect, and the exit code non-zero, when a checker reports a
safety violation or when a deterministic count (events, deliveries,
states, commits, ticks, export bytes) differs between runs of one workload
and seed, traced or not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "costbench", "cost.exe")
WORKLOADS = [
    "wpaxos_grid1000",
    "wpaxos_grid100",
    "wpaxos_grid400_profile",
    "smr_clique5",
    "shard_g4",
    "explore_clique3",
]
REPEATS = 5
MIN_TIMED_REPEATS = 3
CHILD_TIMEOUT_S = 150

# End-to-end metrics, one value per untraced run.
END_TO_END = {
    "wall_s": lambda r: r["wall_s"],
    "events_per_s": lambda r: r["work"] / r["engine_s"],
    "setup_s": lambda r: r["setup_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}

# Per-layer metrics taken from the untraced runs, whose closures are not
# wrapped and so allocate exactly what the program does.
GC = {
    "gc.minor_words_per_event": lambda r: r["minor_words"] / r["work"],
    "gc.major_words": lambda r: r["major_words"],
    "gc.minor_collections": lambda r: r["minor_collections"],
    "gc.major_collections": lambda r: r["major_collections"],
}

LAYERS = ["engine", "scheduler", "handler", "hooks", "explore", "checker", "obs"]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "1", "./costbench/cost.exe"],
        cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"costbench: build failed (dune exit {done.returncode})")


def child(workload, seed, traced, small):
    cmd = [EXE, workload, "--seed", str(seed)]
    cmd += ["--trace"] if traced else []
    cmd += ["--small"] if small else []
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"costbench: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workloads, seed, *, seconds, traced, repeats, small):
    """Runs the workloads round-robin; returns name -> list of records."""
    records = {w: [] for w in workloads}
    used = dict.fromkeys(workloads, 0.0)

    def next_kind(w):
        """True/False for a traced/untraced next run, None when done."""
        n_traced = sum(r["traced"] for r in records[w])
        n_untraced = len(records[w]) - n_traced
        if seconds is None:
            if n_untraced < repeats:
                return False
            return True if traced and n_traced == 0 else None
        if traced:
            if used[w] >= seconds and n_traced >= 1:
                return None
            return n_untraced > n_traced
        if used[w] >= seconds and n_untraced >= MIN_TIMED_REPEATS:
            return None
        return False

    pending = list(workloads)
    while pending:
        for w in list(pending):
            kind = next_kind(w)
            if kind is None:
                pending.remove(w)
                continue
            started = time.monotonic()
            records[w].append(child(w, seed, kind, small))
            used[w] += time.monotonic() - started
    return records


def summary(values):
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def evaluate(records):
    """Correctness, end-to-end and per-layer metrics of one workload."""
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    counts = records[0]["counts"]
    problems = [f"checker violation (seed {r['seed']})" for r in records if not r["safe"]]
    problems += [
        f"{'traced' if r['traced'] else 'untraced'} counts {r['counts']} differ from {counts}"
        for r in records
        if r["counts"] != counts
    ]
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "counts": counts,
        "work": records[0]["work"],
        "end_to_end": {m: summary([f(r) for r in untraced]) for m, f in END_TO_END.items()},
        "per_layer": {},
    }
    if traced:
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers = {m: statistics.median(r["layers"][m] for r in traced) for m in traced[0]["layers"]}
        layers.update({m: statistics.median(f(r) for r in untraced) for m, f in GC.items()})
        layers["trace.overhead"] = traced_wall / result["end_to_end"]["wall_s"]["median"] - 1
        result["per_layer"] = layers
        result["traced_wall_s"] = traced_wall
    return result


def print_workload(name, seed, result, spec):
    print(f"\n{name}  seed {seed}  {'ok' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  counts {result['counts']}")
    print(f"  {'metric':<16}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for m in spec["end_to_end"]:
        s = result["end_to_end"][m["name"]]
        print(
            f"  {m['name']:<16}{m['unit']:<8}{s['median']:>14.6g}"
            f"{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>4}"
        )


def print_layers(results):
    """Where each workload's traced seconds go: each layer's self time as a
    share of the traced wall time (the shares of a workload sum to 1) and
    in microseconds per event, or per explored state."""
    traced = {w: r for w, r in results.items() if r["per_layer"]}
    if not traced:
        return
    print("\nlayer self time in the traced runs: share of wall time, us per event")
    print(f"  {'layer':<16}" + "".join(f"{w:>24}" for w in traced))
    for layer in LAYERS:
        cells = ""
        for r in traced.values():
            share = r["per_layer"][f"{layer}.share"]
            us = share * r["traced_wall_s"] / r["work"] * 1e6
            cells += f"{100 * share:>13.1f}%{us:>8.3f}us"
        print(f"  {layer:<16}{cells}")
    overheads = "".join(f"{100 * r['per_layer']['trace.overhead']:>23.1f}%" for r in traced.values())
    print(f"  {'trace.overhead':<16}{overheads}")


def contract_line(result, spec, traced):
    if traced:
        metrics = {m["name"]: (result["per_layer"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {
            m["name"]: (result["end_to_end"][m["name"]]["median"], m["unit"])
            for m in spec["end_to_end"]
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = declared()
    workloads = args.workload or WORKLOADS
    seeds = args.seed or ([42, 7] if args.smoke else [42])
    seconds = None if args.smoke else args.seconds

    build()
    report = {"benchmark": "B15", "nproc": os.cpu_count(), "runs": []}
    correct = True
    for seed in seeds:
        records = measure(
            workloads,
            seed,
            seconds=seconds,
            traced=args.smoke or args.trace == 1,
            repeats=1 if args.smoke else REPEATS,
            small=args.smoke,
        )
        results = {w: evaluate(records[w]) for w in workloads}
        for w, result in results.items():
            print_workload(w, seed, result, spec)
            missing = [
                m["name"]
                for key in ("end_to_end", "per_layer")
                for m in spec[key]
                if args.smoke and m["name"] not in result[key]
            ]
            if missing:
                print(f"  ! declared metrics not emitted: {missing}")
            correct &= result["correct"] and not missing
        print_layers(results)
        report["runs"].append({"seed": seed, "small": args.smoke, "workloads": results})
    report["ocaml"] = records[workloads[0]][0]["ocaml"]
    print(f"\nnproc {report['nproc']}  OCaml {report['ocaml']}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if len(workloads) == 1 and len(seeds) == 1 and not args.smoke:
        print(json.dumps(contract_line(results[workloads[0]], spec, args.trace == 1)))
    else:
        print("B15 " + ("ok" if correct else "FAILED"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
