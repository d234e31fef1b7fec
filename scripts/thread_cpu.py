#!/usr/bin/env python3
"""Per-thread CPU of a benchmark run, read from /proc/<pid>/task/*/stat.

    scripts/thread_cpu.py -- COMMAND...

Runs COMMAND, for example

    scripts/thread_cpu.py -- .bench_build/perfbench --workload gate_small_tcp \\
        --seed 7 --seconds 20 --trace 0

and samples every thread's utime + stime across the middle half of the
run: from 25% to 75% of the command's --seconds argument after launch,
past start-up and before shutdown. For each thread it prints the busy
share of that window and the CPU microseconds it spends per operation.
The operation rate is the run's "attempted" divided by its seconds, read
from the last line the command prints to stdout (perfbench's JSON result).

Threads alive across the whole window get a row each, in TID order with
their names. Threads that start or exit inside it (a sweep's coordinator
threads, for one) share the "short-lived" row: the process's own CPU count
for the window less the rows above it. The table is Markdown, so it can be
appended to a CI job summary as is. The command's own stdout goes to
stderr.
"""

import argparse
import json
import os
import subprocess
import sys
import time

TICK = os.sysconf("SC_CLK_TCK")
# The sampling window, as fractions of the command's --seconds.
WINDOW_START = 0.25
WINDOW_END = 0.75


def cpu_ticks(stat_path):
    """(name, utime + stime in clock ticks) of one /proc stat file."""
    with open(stat_path) as f:
        text = f.read()
    name = text[text.index("(") + 1:text.rindex(")")]
    # Fields after the name: state is field 3, utime 14 and stime 15.
    fields = text[text.rindex(")") + 2:].split()
    return name, int(fields[11]) + int(fields[12])


def sample(pid):
    """{tid: (name, ticks)} of every live thread, plus the process total."""
    threads = {}
    task_dir = "/proc/%d/task" % pid
    for entry in os.listdir(task_dir):
        try:
            threads[int(entry)] = cpu_ticks("%s/%s/stat" % (task_dir, entry))
        except (FileNotFoundError, ProcessLookupError, ValueError):
            pass  # the thread exited between listdir and open
    return threads, cpu_ticks("/proc/%d/stat" % pid)[1]


def seconds_arg(command):
    for i, arg in enumerate(command[:-1]):
        if arg == "--seconds":
            return float(command[i + 1])
    sys.exit("thread_cpu: the command needs a --seconds argument")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    seconds = seconds_arg(command)

    launched = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    samples = []  # (time, {tid: (name, ticks)}, process ticks)
    for fraction in (WINDOW_START, WINDOW_END):
        time.sleep(max(0.0, launched + fraction * seconds - time.monotonic()))
        try:
            threads, total = sample(proc.pid)
        except (FileNotFoundError, ProcessLookupError):
            break  # the command has exited
        samples.append((time.monotonic(), threads, total))
    stdout, _ = proc.communicate()
    sys.stderr.write(stdout)
    if proc.returncode != 0:
        sys.exit("thread_cpu: command exited with %d" % proc.returncode)
    if len(samples) < 2:
        sys.exit("thread_cpu: the run ended before the window closed")
    (t_first, first, total_first), (t_last, last, total_last) = samples
    elapsed = t_last - t_first
    result = json.loads(stdout.strip().splitlines()[-1])
    ops_per_s = result["attempted"] / seconds

    def row(label, name, ticks):
        cpu_s = ticks / TICK
        busy = 100.0 * cpu_s / elapsed
        us_per_op = cpu_s / elapsed / ops_per_s * 1e6 if ops_per_s else 0.0
        print("| %s | %s | %.1f | %.3f |" % (label, name, busy, us_per_op))

    print("thread CPU of `%s`" % " ".join(command))
    print()
    print("window %.1f-%.1f s after launch (%.2f s sampled); %.4g operations/s"
          " (attempted %d in %g s)" % (WINDOW_START * seconds,
                                      WINDOW_END * seconds, elapsed,
                                      ops_per_s, result["attempted"], seconds))
    print()
    print("| thread | name | busy % | CPU us/op |")
    print("|---:|---|---:|---:|")
    listed = 0
    for tid in sorted(first.keys() & last.keys()):
        name, ticks = last[tid]
        row(tid, name, ticks - first[tid][1])
        listed += ticks - first[tid][1]
    row("short-lived", "", max(0, total_last - total_first - listed))
    row("process", "", total_last - total_first)
    return 0


if __name__ == "__main__":
    sys.exit(main())
