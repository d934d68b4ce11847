#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh BENCH.json against the committed one.

Usage: gate.py BASELINE.json FRESH.json

Checks, with a +/-30% tolerance on timing cells:
  - B5: the "states/sec" column, per (n, crashes) row present in both files
    — skipped for tiny explorations (< 10k states, where the wall-clock
    window is microseconds and the ratio is pure noise); the "states"
    column must match EXACTLY on every row (state counts are deterministic,
    a drift there is a semantic regression in the explorer, not noise).
  - B7: the "ns/state" column, per primitive row present in both files.
  - B9: the "cmds/sec" column, per (n, loss width) row present in both
    files; "committed", "p50", "p99" and "safe" must match EXACTLY (the
    replicated-log run is deterministic from its seed — any drift is a
    semantic change in the SMR stack, not noise).
  - B10: EVERY column must match EXACTLY per (n, byz) row present in both
    files — the Byzantine-adversary cells contain no wall-clock at all, so
    any drift in latency / broadcasts / suppressed / substituted / decided
    / safe is a semantic change in the adversary model, the substitute
    hook, or byz_consensus itself.
  - B11: EVERY column must match EXACTLY per (scenario, patience) row
    present in both files — the lifecycle cells (failover detection
    latency, reconfiguration / compaction commit quantiles) are seeded
    simulation runs with no wall-clock, so any drift is a semantic change
    in the detector, the repair path, or the reconfiguration machinery.
  - B12: EVERY column must match EXACTLY per (algo, topo) row present in
    both files (critical paths and energy segments are pure functions of
    the schedule), AND — within the fresh file alone — the wpaxos line
    rows' hop counts must grow strictly monotonically with the diameter:
    the O(D*F_ack) shape is an acceptance criterion, not just a baseline.
  - B13: "committed", "batches", "last_commit", "end_time", "p50", "p99"
    and "safe" must match EXACTLY per G row present in both files (the
    sharded run is deterministic from its seed); "cmds/sec" carries the
    +/-30% wall-clock tolerance. AND — within the fresh file alone — the
    deterministic throughput column must scale: cmds/ktick at G=4 must be
    >= 2.5x cmds/ktick at G=1. A flat slope means sharding stopped
    multiplying the per-node MAC channel and is a regression even if
    every cell matches some (equally flat) baseline.

  - B14: EVERY column must match EXACTLY per (topo, alpha) row present in
    both files — the multi-hop scale cells (fixed-delay scheduler plus the
    deterministic contention stretch, seeded topology generators) contain
    no wall-clock at all. AND — within the fresh file alone — three shape
    checks: a 1000-node row must be present and safe (the tentpole scale
    claim), the grid rows' hop counts at alpha=2 must grow strictly
    monotonically with the diameter, and every row's hops must stay within
    [D, 8*D] — the O(D*F_ack) shape at generator scale is an acceptance
    criterion, not just a baseline.
  - E7: EVERY row and EVERY note must match EXACTLY — the valid-step
    exploration is deterministic (initial valencies, the 1132-config
    crash-free count, the 17-step termination schedule, the agreement
    verdict), so any drift is a semantic change in Lowerbound.Bivalence
    or the Mcheck.Explore semantics it walks.
  - E2, E3, E8, E9, E11: EVERY column must match EXACTLY per row present in
    both files (keyed by topology, n, topology, variant and (p(deliver),
    algorithm) respectively), and the notes must match EXACTLY — these
    are the paper's wPAXOS and flood-paxos tables (latency shape, wPAXOS
    vs flood-paxos, ids per message, the service ablation, unreliable
    links), all simulated ticks and counts from fixed seeds, so any drift
    is a semantic change in wPAXOS, flood-paxos or the services they share.

Rows present in only one file (e.g. --quick runs fewer B5 cases) are
skipped. Exit 0 = within tolerance, 1 = regression (offenders listed).
"""

import json
import sys

TOLERANCE = 0.30

# The paper's wPAXOS / flood-paxos tables, gated exactly: id -> key columns.
EXACT_TABLES = {
    "E2": ["topology"],
    "E3": ["n"],
    "E8": ["topology"],
    "E9": ["variant"],
    "E11": ["p(deliver)", "algorithm"],
}


def table(bench, exp_id):
    for entry in bench["experiments"]:
        if entry["id"] == exp_id:
            return entry["table"]
    return None


def rows_by_key(tab, key_columns):
    cols = tab["columns"]
    idx = [cols.index(c) for c in key_columns]
    return {tuple(row[i] for i in idx): row for row in tab["rows"]}


def cell(tab, row, column):
    return row[tab["columns"].index(column)]


def check_ratio(failures, label, base_cell, fresh_cell, higher_is_better):
    base, fresh = float(base_cell), float(fresh_cell)
    if base <= 0:
        return
    ratio = fresh / base
    # For throughput (higher better) flag drops; for latency (lower better)
    # flag rises. Improvements never fail the gate.
    bad = ratio < 1 - TOLERANCE if higher_is_better else ratio > 1 + TOLERANCE
    if bad:
        failures.append(
            f"{label}: {fresh:.0f} vs baseline {base:.0f} "
            f"({100 * (ratio - 1):+.1f}%, tolerance +/-{100 * TOLERANCE:.0f}%)"
        )


def main():
    baseline = json.load(open(sys.argv[1]))
    fresh = json.load(open(sys.argv[2]))
    failures = []

    b5_base, b5_fresh = table(baseline, "B5"), table(fresh, "B5")
    if b5_base and b5_fresh:
        base_rows = rows_by_key(b5_base, ["n", "crashes"])
        fresh_rows = rows_by_key(b5_fresh, ["n", "crashes"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B5 n={key[0]} crashes={key[1]}"
            states_base = cell(b5_base, base_rows[key], "states")
            states_fresh = cell(b5_fresh, fresh_rows[key], "states")
            if states_base != states_fresh:
                failures.append(
                    f"{label}: states {states_fresh} vs baseline "
                    f"{states_base} (must match exactly)"
                )
            if int(states_base) >= 10_000:
                check_ratio(
                    failures,
                    f"{label} states/sec",
                    cell(b5_base, base_rows[key], "states/sec"),
                    cell(b5_fresh, fresh_rows[key], "states/sec"),
                    higher_is_better=True,
                )
    else:
        failures.append("B5 table missing from baseline or fresh run")

    b7_base, b7_fresh = table(baseline, "B7"), table(fresh, "B7")
    if b7_base and b7_fresh:
        base_rows = rows_by_key(b7_base, ["primitive"])
        fresh_rows = rows_by_key(b7_fresh, ["primitive"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            check_ratio(
                failures,
                f"B7 {key[0]} ns/state",
                cell(b7_base, base_rows[key], "ns/state"),
                cell(b7_fresh, fresh_rows[key], "ns/state"),
                higher_is_better=False,
            )
    else:
        failures.append("B7 table missing from baseline or fresh run")

    b9_base, b9_fresh = table(baseline, "B9"), table(fresh, "B9")
    if b9_base and b9_fresh:
        base_rows = rows_by_key(b9_base, ["n", "loss width"])
        fresh_rows = rows_by_key(b9_fresh, ["n", "loss width"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B9 n={key[0]} loss_width={key[1]}"
            for column in ("committed", "p50", "p99", "safe"):
                base_cell = cell(b9_base, base_rows[key], column)
                fresh_cell = cell(b9_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
            check_ratio(
                failures,
                f"{label} cmds/sec",
                cell(b9_base, base_rows[key], "cmds/sec"),
                cell(b9_fresh, fresh_rows[key], "cmds/sec"),
                higher_is_better=True,
            )
    else:
        failures.append("B9 table missing from baseline or fresh run")

    b10_base, b10_fresh = table(baseline, "B10"), table(fresh, "B10")
    if b10_base and b10_fresh:
        base_rows = rows_by_key(b10_base, ["n", "byz"])
        fresh_rows = rows_by_key(b10_fresh, ["n", "byz"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B10 n={key[0]} byz={key[1]}"
            for column in (
                "latency",
                "broadcasts",
                "suppressed",
                "substituted",
                "decided",
                "safe",
            ):
                base_cell = cell(b10_base, base_rows[key], column)
                fresh_cell = cell(b10_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
    else:
        failures.append("B10 table missing from baseline or fresh run")

    b11_base, b11_fresh = table(baseline, "B11"), table(fresh, "B11")
    if b11_base and b11_fresh:
        base_rows = rows_by_key(b11_base, ["scenario", "patience"])
        fresh_rows = rows_by_key(b11_fresh, ["scenario", "patience"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B11 scenario={key[0]} patience={key[1]}"
            for column in (
                "detect",
                "committed",
                "p50",
                "p99",
                "end_time",
                "safe",
            ):
                base_cell = cell(b11_base, base_rows[key], column)
                fresh_cell = cell(b11_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
    else:
        failures.append("B11 table missing from baseline or fresh run")

    b12_base, b12_fresh = table(baseline, "B12"), table(fresh, "B12")
    if b12_base and b12_fresh:
        base_rows = rows_by_key(b12_base, ["algo", "topo"])
        fresh_rows = rows_by_key(b12_fresh, ["algo", "topo"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B12 algo={key[0]} topo={key[1]}"
            for column in b12_base["columns"]:
                base_cell = cell(b12_base, base_rows[key], column)
                fresh_cell = cell(b12_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
        # Shape check on the fresh run alone: wpaxos critical-path hops
        # strictly increase with line diameter.
        line_rows = sorted(
            (
                int(cell(b12_fresh, row, "D")),
                int(cell(b12_fresh, row, "hops")),
                key[1],
            )
            for key, row in fresh_rows.items()
            if key[0] == "wpaxos" and key[1].startswith("line:")
        )
        for (d1, h1, t1), (d2, h2, t2) in zip(line_rows, line_rows[1:]):
            if d2 > d1 and h2 <= h1:
                failures.append(
                    f"B12 hops not monotone in diameter: {t1} (D={d1}) has "
                    f"{h1} hops but {t2} (D={d2}) has {h2}"
                )
    else:
        failures.append("B12 table missing from baseline or fresh run")

    b13_base, b13_fresh = table(baseline, "B13"), table(fresh, "B13")
    if b13_base and b13_fresh:
        base_rows = rows_by_key(b13_base, ["G"])
        fresh_rows = rows_by_key(b13_fresh, ["G"])
        for key in sorted(set(base_rows) & set(fresh_rows), key=lambda k: int(k[0])):
            label = f"B13 G={key[0]}"
            for column in (
                "committed",
                "batches",
                "last_commit",
                "end_time",
                "p50",
                "p99",
                "safe",
            ):
                base_cell = cell(b13_base, base_rows[key], column)
                fresh_cell = cell(b13_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
            check_ratio(
                failures,
                f"{label} cmds/sec",
                cell(b13_base, base_rows[key], "cmds/sec"),
                cell(b13_fresh, fresh_rows[key], "cmds/sec"),
                higher_is_better=True,
            )
        # Shape check on the fresh run alone: the deterministic aggregate
        # throughput must actually scale with the group count, or sharding
        # has regressed to time-slicing the MAC channel.
        if ("1",) in fresh_rows and ("4",) in fresh_rows:
            kt1 = float(cell(b13_fresh, fresh_rows[("1",)], "cmds/ktick"))
            kt4 = float(cell(b13_fresh, fresh_rows[("4",)], "cmds/ktick"))
            if kt1 > 0 and kt4 < 2.5 * kt1:
                failures.append(
                    f"B13 scaling slope collapsed: G=4 cmds/ktick {kt4:.2f} "
                    f"is only {kt4 / kt1:.2f}x G=1 ({kt1:.2f}), need >= 2.5x"
                )
        else:
            failures.append("B13 fresh run missing the G=1 or G=4 row")
    else:
        failures.append("B13 table missing from baseline or fresh run")

    b14_base, b14_fresh = table(baseline, "B14"), table(fresh, "B14")
    if b14_base and b14_fresh:
        base_rows = rows_by_key(b14_base, ["topo", "alpha"])
        fresh_rows = rows_by_key(b14_fresh, ["topo", "alpha"])
        for key in sorted(set(base_rows) & set(fresh_rows)):
            label = f"B14 topo={key[0]} alpha={key[1]}"
            for column in b14_base["columns"]:
                base_cell = cell(b14_base, base_rows[key], column)
                fresh_cell = cell(b14_fresh, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{label}: {column} {fresh_cell} vs baseline "
                        f"{base_cell} (must match exactly)"
                    )
        # Shape checks on the fresh run alone. (a) The tentpole scale
        # claim: a 1000-node topology must run to a safe decision.
        if not any(
            cell(b14_fresh, row, "n") == "1000"
            and cell(b14_fresh, row, "safe") == "yes"
            for row in fresh_rows.values()
        ):
            failures.append("B14 fresh run has no safe 1000-node row")
        # (b) Grid hop counts at alpha=2 strictly increase with diameter,
        # and (c) every row's hops stay within [D, 8*D]: the decide path
        # must cross the diameter but only a constant factor more often.
        grid_rows = sorted(
            (
                int(cell(b14_fresh, row, "D")),
                int(cell(b14_fresh, row, "hops")),
                key[0],
            )
            for key, row in fresh_rows.items()
            if key[0].startswith("grid:") and key[1] == "2"
        )
        for (d1, h1, t1), (d2, h2, t2) in zip(grid_rows, grid_rows[1:]):
            if d2 > d1 and h2 <= h1:
                failures.append(
                    f"B14 hops not monotone in diameter: {t1} (D={d1}) has "
                    f"{h1} hops but {t2} (D={d2}) has {h2}"
                )
        for key, row in fresh_rows.items():
            d = int(cell(b14_fresh, row, "D"))
            hops = int(cell(b14_fresh, row, "hops"))
            if not d <= hops <= 8 * d:
                failures.append(
                    f"B14 topo={key[0]} alpha={key[1]}: hops {hops} outside "
                    f"[D, 8*D] = [{d}, {8 * d}]"
                )
    else:
        failures.append("B14 table missing from baseline or fresh run")

    e7_base, e7_fresh = table(baseline, "E7"), table(fresh, "E7")
    if e7_base and e7_fresh:
        for part in ("rows", "notes"):
            if e7_fresh[part] != e7_base[part]:
                failures.append(
                    f"E7 {part} {e7_fresh[part]} vs baseline "
                    f"{e7_base[part]} (must match exactly)"
                )
    else:
        failures.append("E7 table missing from baseline or fresh run")

    for exp_id, key_columns in EXACT_TABLES.items():
        base_tab, fresh_tab = table(baseline, exp_id), table(fresh, exp_id)
        if not (base_tab and fresh_tab):
            failures.append(f"{exp_id} table missing from baseline or fresh run")
            continue
        base_rows = rows_by_key(base_tab, key_columns)
        fresh_rows = rows_by_key(fresh_tab, key_columns)
        for key in sorted(set(base_rows) & set(fresh_rows)):
            for column in base_tab["columns"]:
                base_cell = cell(base_tab, base_rows[key], column)
                fresh_cell = cell(fresh_tab, fresh_rows[key], column)
                if base_cell != fresh_cell:
                    failures.append(
                        f"{exp_id} {'/'.join(key)}: {column} {fresh_cell} vs "
                        f"baseline {base_cell} (must match exactly)"
                    )
        if fresh_tab["notes"] != base_tab["notes"]:
            failures.append(
                f"{exp_id} notes {fresh_tab['notes']} vs baseline "
                f"{base_tab['notes']} (must match exactly)"
            )

    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        "perf gate passed (B5 states + B9 committed/p50/p99 + all B10, "
        "B11, B12 and B14 cells + B13 deterministic cells + E7 rows and "
        "notes + E2, E3, E8, E9 and E11 rows and notes exact, B12/B14 hops monotone in D, B14 1000-node row safe "
        "with hops in [D, 8D], "
        "B13 G=4 >= 2.5x G=1 on cmds/ktick, timing within +/-30%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
