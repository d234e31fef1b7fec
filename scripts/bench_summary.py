#!/usr/bin/env python3
"""Fold per-leg BENCH_*.json artifacts into one perf-trajectory table.

Every bench binary writes a BENCH_*.json (see bench/bench_common.h) and CI
uploads one artifact per matrix leg. Downloading those artifacts yields a
directory per leg, each holding the same three file names — this script
merges any number of them into a single markdown table so a perf trajectory
across legs (and across downloaded runs) is one page instead of N job logs.
bench_batch_throughput's tables lines, each rung's table decode (precision
"table") and the experiment's one phasor decode (the "scalar" kernel's
"f64" row), also get a table of their own in ns per word with the speedup.

Usage:
    scripts/bench_summary.py [path ...]

Each path may be a BENCH_*.json file or a directory searched recursively
for files matching BENCH_*.json. With no arguments the current directory
is searched. The leg label for a result is the file's parent directory
(relative, '.' for the working directory), which matches the artifact
names CI uses (bench-json-<compiler>-<kernel>).

Standard library only — the CI runners and the dev image both lack
third-party Python packages by design.
"""

import json
import os
import sys


def find_bench_files(paths):
    """Yield (leg, path) for every BENCH_*.json under the given paths."""
    if not paths:
        paths = ["."]
    seen = set()
    for p in paths:
        if os.path.isfile(p):
            candidates = [p]
        elif os.path.isdir(p):
            candidates = []
            for root, _dirs, files in os.walk(p):
                for name in sorted(files):
                    if name.startswith("BENCH_") and name.endswith(".json"):
                        candidates.append(os.path.join(root, name))
        else:
            print(f"warning: {p}: no such file or directory", file=sys.stderr)
            continue
        for c in candidates:
            real = os.path.realpath(c)
            if real in seen:
                continue
            seen.add(real)
            leg = os.path.relpath(os.path.dirname(c) or ".")
            yield leg, c


def load_rows(leg, path):
    """(result_rows, phase_rows): flat dicts annotated with leg + host."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    host = doc.get("host", {})
    bench = doc.get("bench", os.path.basename(path))
    rows = []
    for r in doc.get("results", []):
        rows.append(
            {
                "leg": leg,
                "bench": bench,
                "name": r.get("name", "?"),
                "kernel": r.get("kernel", "?"),
                "precision": r.get("precision", "?"),
                "words_per_s": float(r.get("words_per_s", 0.0)),
                "host_kernel": host.get("active_kernel", "?"),
            }
        )
    phases = []
    for p in doc.get("phases", []):
        phases.append(
            {
                "leg": leg,
                "bench": bench,
                "name": p.get("name", "?"),
                "phase": p.get("phase", "?"),
                "mean_seconds": float(p.get("mean_seconds", 0.0)),
                "count": int(p.get("count", 0)),
            }
        )
    return rows, phases


def fmt_rate(words_per_s):
    if words_per_s >= 1e6:
        return f"{words_per_s / 1e6:.1f}M"
    if words_per_s >= 1e3:
        return f"{words_per_s / 1e3:.1f}k"
    return f"{words_per_s:.0f}"


def fmt_mean_us(seconds):
    return f"{seconds * 1e6:.1f}us"


def table_decode_rows(rows):
    """bench_batch_throughput's tables lines: for each (leg, experiment,
    kernel) table decode ("table"), its ns per word next to the same
    experiment's phasor eval_bits (the "scalar" kernel's "f64" row, the one
    phasor decode every rung is checked against), and the phasor-over-table
    ratio. A rung whose experiment has no phasor row is skipped."""
    phasor = {}
    tables = []
    for r in rows:
        if r["precision"] == "f64" and r["kernel"] == "scalar":
            phasor[(r["bench"], r["name"], r["leg"])] = r["words_per_s"]
        elif r["precision"] == "table":
            tables.append(r)
    out = []
    for r in sorted(tables, key=lambda r: (r["bench"], r["name"],
                                           r["kernel"], r["leg"])):
        f64 = phasor.get((r["bench"], r["name"], r["leg"]), 0.0)
        if r["words_per_s"] <= 0.0 or f64 <= 0.0:
            continue
        out.append([r["bench"], r["name"], r["kernel"],
                    f"{1e9 / r['words_per_s']:.3f}", f"{1e9 / f64:.3f}",
                    f"{r['words_per_s'] / f64:.1f}x", r["leg"]])
    return out


def print_table(header, table):
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    print(line(header))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in table:
        print(line(row))


def main(argv):
    rows = []
    phase_rows = []
    for leg, path in find_bench_files(argv[1:]):
        try:
            file_rows, file_phases = load_rows(leg, path)
            rows.extend(file_rows)
            phase_rows.extend(file_phases)
        except (OSError, ValueError) as e:
            print(f"warning: {path}: {e}", file=sys.stderr)
    if not rows:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1

    rows.sort(key=lambda r: (r["bench"], r["name"], r["kernel"],
                             r["precision"], r["leg"]))
    header = ["bench", "experiment", "kernel", "precision", "words/s", "leg"]
    table = [
        [r["bench"], r["name"], r["kernel"], r["precision"],
         fmt_rate(r["words_per_s"]), r["leg"]]
        for r in rows
    ]
    print_table(header, table)

    decode = table_decode_rows(rows)
    if decode:
        print()
        print("table decode per rung vs the phasor eval_bits "
              "(column kernel, ns/word):")
        print_table(["bench", "experiment", "kernel", "tables",
                     "phasor eval_bits", "speedup", "leg"], decode)

    if phase_rows:
        # The per-phase sections benches emit (bench_common.h add_phase):
        # where a served request's lifetime went, as its own table.
        phase_rows.sort(key=lambda r: (r["bench"], r["name"], r["phase"],
                                       r["leg"]))
        pheader = ["bench", "experiment", "phase", "mean", "count", "leg"]
        ptable = [
            [r["bench"], r["name"], r["phase"], fmt_mean_us(r["mean_seconds"]),
             str(r["count"]), r["leg"]]
            for r in phase_rows
        ]
        print()
        print("phase breakdown:")
        print_table(pheader, ptable)

    legs = sorted({(r["leg"], r["host_kernel"]) for r in rows})
    print()
    for leg, host_kernel in legs:
        print(f"{leg}: active kernel {host_kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
