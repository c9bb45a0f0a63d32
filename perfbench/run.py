"""End-to-end benchmark of the ``durfee`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run is timed: one client runs the workload's CLI
commands one at a time (closed loop), each in a fresh
``python -m durfee.cli`` process from ``src`` with ``DURFEE_THREADS=1``,
and repeats the command list until every command has run and the next
would end after ``--seconds``.  The seed shuffles the command order of each
pass.  Before each command it also spawns a ``durfee --help`` set-up call
and ``reference.py``, a fixed task that imports nothing from ``durfee``.
It reports:

    wall_s        wall seconds of one pass over the command list, start-up
                  included, as the sum of each command's median run
    cpu_s         user+sys seconds of the child processes, summed the same way
    peak_rss_mb   largest peak resident size of any child process; it cannot
                  read below the spawner's own peak RSS, which the summary
                  line states beside it and flags when the two meet
    setup_s       median wall of the ``durfee --help`` calls
    success_rate  passed operations / attempted operations: 1 - error rate,
                  reported as the complement so a relative bound can apply

The three times are scaled to a fixed host speed: each is multiplied by
``REFERENCE_NOMINAL_S`` over the median wall of the reference task in the
same run.  On a shared host whose speed swings by half under other load,
this keeps the figures of one commit comparable from run to run; the summary
line gives the measured times and the reference time beside them.

One operation is one CLI command of the workload.  It fails on a non-zero
exit, on stdout whose SHA-256 differs from the reference in
``workloads.json``, or, for ``verify``, on a verdict other than
``RESULT<TAB>PASS``.  The set-up calls and the reference task are not
operations: if one fails, the run stops with an error and prints no result.

With ``--trace 1`` the run is traced in-process instead (see ``traced.py``)
and reports the per-layer metrics; it runs each command twice whatever
``--seconds`` says.  The last line of standard output is the
result object; the lines before it give provenance and a readable summary.

``workloads.json`` holds each workload's commands with their reference
digests, recorded at the seed commit, and the table of which end-to-end
metric each layer metric should move; the rationale of each workload is in
``BENCHMARK.json``.  A change that means to alter an output updates its
digest there by hand.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import harness

SETUP_SPAWNS = 5
#: The fixed reference task, spawned before every command.
REFERENCE_ARGV = [sys.executable, "-I", str(harness.HERE / "reference.py")]
#: Wall seconds of the reference task that the time metrics are scaled to: a
#: fixed constant, near its time on a quiet 2-vCPU Xeon host, so that the
#: scaled figures read as seconds on such a host.
REFERENCE_NOMINAL_S = 0.2
#: Peak RSS this close to the spawner's own is flagged as possibly floored.
RSS_FLOOR_MARGIN_MB = 0.5


def spawn(argv, env) -> tuple[harness.OutputCheck, int, float, float, float]:
    """Run one process, streaming its stdout into an output check.

    Returns the check, exit code, wall seconds, child CPU seconds and the
    child's peak resident size in MB.
    """
    check = harness.OutputCheck()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            cwd=harness.ROOT)
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            check.update(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    return check, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def timed_run(name: str, commands: list[dict], seed: int, seconds: float) -> None:
    env = harness.child_env()
    rng = random.Random(seed)

    def call(argv, what: str) -> float:
        _, code, wall, _, _ = spawn(argv, env)
        if code != 0:
            sys.exit(f"error: {what} exited {code}")
        return wall

    def setup_call() -> float:
        return call(harness.cli_argv(harness.SETUP_ARGV), "set-up call `durfee --help`")

    def reference_call() -> float:
        return call(REFERENCE_ARGV, "reference task")

    # Untimed warm-up: compiles the .pyc files, so set-up time excludes it.
    setup_call()
    reference_call()
    setup = [setup_call() for _ in range(SETUP_SPAWNS)]
    reference: list[float] = []

    # samples[i] holds (wall, cpu, rss) of each run of command i.  Commands
    # run in seeded shuffled passes.  Once every command has run, the run
    # ends at the first command whose fastest run so far would not finish
    # before the deadline, so a long command does not overrun --seconds.
    samples: list[list[tuple[float, float, float]]] = [[] for _ in commands]
    failures: list[str] = []
    order: list[int] = []
    deadline = time.perf_counter() + seconds
    while True:
        if not order:
            order = rng.sample(range(len(commands)), len(commands))
        i = order.pop()
        if all(samples) and time.perf_counter() + min(w for w, _, _ in samples[i]) > deadline:
            break
        # Set-up calls and the reference task are spread over the run, so
        # their medians see the same host load as the commands.
        setup.append(setup_call())
        reference.append(reference_call())
        check, code, wall, cpu, rss = spawn(harness.cli_argv(commands[i]["argv"]), env)
        samples[i].append((wall, cpu, rss))
        why = check.failure(commands[i], code)
        if why is not None:
            failures.append(f"{' '.join(commands[i]['argv'])}: {why}")

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(map(len, samples))
    failed = len(failures)
    # Other load slows a shared host by up to half, in bursts under a second
    # long and in spells of minutes, and every Python process slows with it,
    # so the times are scaled by the reference task's speed in the same run.
    # A command's median run is steadier than its fastest, which depends on
    # catching a fast burst.
    speed = REFERENCE_NOMINAL_S / statistics.median(reference)
    measured = {
        "wall_s": sum(statistics.median(w for w, _, _ in s) for s in samples),
        "cpu_s": sum(statistics.median(c for _, c, _ in s) for s in samples),
        "setup_s": statistics.median(setup),
    }
    values = {key: value * speed for key, value in measured.items()}
    values["peak_rss_mb"] = max(r for s in samples for _, _, r in s)
    values["success_rate"] = (attempted - failed) / attempted
    info = harness.provenance(name, seed, False)
    # A spawned child's ru_maxrss is never below the spawner's own peak RSS.
    floor = info["harness_maxrss_mb"]
    at_floor = values["peak_rss_mb"] <= floor + RSS_FLOOR_MARGIN_MB
    if at_floor:
        print(f"WARNING peak_rss_mb {values['peak_rss_mb']:.1f} MB is at the spawner's own "
              f"{floor:.1f} MB: the children may use less", file=sys.stderr)
    summary = (
        f"# {name}: {attempted} runs of {len(commands)} commands "
        f"(fewest runs of one command: {min(map(len, samples))}); "
        f"wall_s={values['wall_s']:.3f} s cpu_s={values['cpu_s']:.3f} s "
        f"setup_s={values['setup_s']:.4f} s at reference speed, measured "
        f"{measured['wall_s']:.3f} s, {measured['cpu_s']:.3f} s, {measured['setup_s']:.4f} s "
        f"with the reference task at {statistics.median(reference):.4f} s; "
        f"peak_rss_mb={values['peak_rss_mb']:.1f} MB (spawner floor {floor:.1f} MB"
        f"{', AT FLOOR' if at_floor else ''}) "
        f"error_rate={failed / attempted:g} ({failed}/{attempted} operations)"
    )
    harness.emit(info, summary, failed == 0, attempted, failed, values, "end_to_end")


def main() -> None:
    # Turn SIGTERM into SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=harness.load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    harness.require_source()
    workloads = harness.load_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    commands = workloads[args.workload]["commands"]
    if args.trace:
        import traced

        traced.traced_run(args.workload, commands, args.seed)
    else:
        timed_run(args.workload, commands, args.seed, args.seconds)


if __name__ == "__main__":
    main()
