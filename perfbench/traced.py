"""Traced run: per-layer metrics for one workload, in one fresh interpreter.

1. Runs each of the workload's commands in-process through
   ``durfee.cli.main``, once untraced and then once traced, clearing every
   ``lru_cache`` before each call so it starts as cold as a fresh CLI
   process.  Both calls stream stdout into the same digest checks as the
   timed runs.  The cache counters add up over the traced calls.
2. For the traced calls, every public module-level function of the nine
   ``durfee`` modules is wrapped, and each wrapper is rebound in every ``durfee.*``
   namespace that holds the function (``verify`` and ``cli`` import names
   from ``marked``), and in ``verify.CHECKS``.  A span's self time is its
   duration minus the spans it encloses; generator functions are timed only
   inside ``next()``.  Methods and private helpers are not wrapped, so their
   time counts toward the calling function's module.
3. With the wrappers removed, it times fixed-input rows, each with cold
   caches.

``trace.overhead_s`` is the traced calls' wall minus the untraced calls'.
Where few calls are traced it is within host noise and can read below zero.
``verify.<check>.s`` is a check's inclusive time in the traced call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import harness

MODULES = (
    "partitions", "symbols", "marked", "bijections", "moments",
    "qseries", "serialize", "verify", "cli",
)

CACHE_COUNTERS = (
    ("partitions", "enumerate_partitions"),
    ("partitions", "bounded_partitions"),
    ("partitions", "bounded_partitions_upto"),
    ("partitions", "rank_distribution"),
    ("symbols", "durfee_rank_distribution"),
    ("marked", "kmarked_rank_distribution"),
)


class Tracer:
    """Wrappers that accumulate self time and call counts per module."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.calls = dict.fromkeys(MODULES, 0)
        self.inclusive: dict[str, float] = {}
        # One entry per open span: the time its child spans have covered.
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str | None):
        stack, self_s, calls, inclusive = self._stack, self.self_s, self.calls, self.inclusive
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def step(gen):
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        self_s[layer] += dt - stack.pop()
                        if stack:
                            stack[-1] += dt
                        if key is not None:
                            inclusive[key] = inclusive.get(key, 0.0) + dt
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[layer] += 1
                return step(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt
                if key is not None:
                    inclusive[key] = inclusive.get(key, 0.0) + dt

        return wrapper

    def install(self) -> None:
        verify = sys.modules["durfee.verify"]
        check_keys = {id(fn): f"verify.{name}.s" for name, fn in verify.CHECKS.items()}
        wrappers: dict[int, object] = {}
        for layer in MODULES:
            mod = sys.modules[f"durfee.{layer}"]
            for name, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer, check_keys.get(id(obj)))
        for modname, mod in list(sys.modules.items()):
            if modname == "durfee" or modname.startswith("durfee."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        self._patches.append((mod, name, obj))
                        setattr(mod, name, wrappers[id(obj)])
        for name, fn in list(verify.CHECKS.items()):
            self._patches.append((verify.CHECKS, name, fn))
            wrapper = wrappers.get(id(fn)) or self._wrap(fn, "verify", check_keys[id(fn)])
            verify.CHECKS[name] = wrapper

    def uninstall(self) -> None:
        for target, name, obj in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = obj
            else:
                setattr(target, name, obj)
        self._patches.clear()


class HashSink(io.RawIOBase):
    def __init__(self, check: harness.OutputCheck) -> None:
        self.check = check

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.check.update(bytes(b))
        return len(b)


def run_in_process(argv: list[str]) -> tuple[harness.OutputCheck, int]:
    """``durfee.cli.main(argv)`` with stdout streamed into an output check."""
    check = harness.OutputCheck()
    out = io.TextIOWrapper(io.BufferedWriter(HashSink(check), 1 << 16), encoding="utf-8")
    saved, sys.stdout = sys.stdout, out
    try:
        code = sys.modules["durfee.cli"].main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        out.flush()
        sys.stdout = saved
    return check, code


def all_caches() -> list:
    seen: dict[int, object] = {}
    for layer in MODULES:
        for obj in vars(sys.modules[f"durfee.{layer}"]).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                seen[id(obj)] = obj
    return list(seen.values())


def clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


def run_command(command: dict, caches, failures: list[str]) -> float:
    """Run one command in-process from cold caches; return its wall."""
    clear(caches)
    t0 = time.perf_counter()
    check, code = run_in_process(command["argv"])
    seconds = time.perf_counter() - t0
    why = check.failure(command, code)
    if why is not None:
        failures.append(f"{' '.join(command['argv'])}: {why}")
    return seconds


def _median_time(fn, repeats: int, caches) -> float:
    times = []
    for _ in range(repeats):
        clear(caches)
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fixed_rows(caches) -> dict[str, float]:
    """Layer timings on fixed inputs, each from cold caches."""
    from durfee import bijections, marked, partitions, qseries, serialize
    from durfee.symbols import Flavor

    rows: dict[str, float] = {}
    rows["partitions.enumerate_partitions.n40.s"] = _median_time(
        lambda: partitions.enumerate_partitions(40), 3, caches)

    sizes = {"n22k3": (22, 3, Flavor.ORDINARY), "n18k4": (18, 4, Flavor.ORDINARY),
             "n30k2odd": (30, 2, Flavor.ODD)}
    for label, (n, k, flavor) in sizes.items():
        clear(caches)
        t0 = time.perf_counter()
        count = sum(1 for _ in marked.enumerate_kmarked(n, k, flavor))
        rows[f"marked.enumerate_kmarked.{label}.symbols_per_s"] = count / (time.perf_counter() - t0)
        rows[f"marked.kmarked_rank_distribution.{label}.s"] = _median_time(
            lambda: marked.kmarked_rank_distribution(n, k, flavor), 1, caches)

    corpus = list(marked.enumerate_kmarked(14, 3))
    shifted = [(s, s.ranks) for s in corpus
               if min(s.ranks) >= 0 and marked.is_strict_shifted_symbol(s)]
    docs = [serialize.symbol_to_document(s) for s in corpus]
    per_symbol = {
        "marked.ranks": (corpus, lambda s: s.ranks),
        "marked.validate": (corpus, marked.validate),
        "marked.balanced_numbers": (corpus, marked.balanced_numbers),
        "bijections.flip_rank": (
            corpus, lambda s: [bijections.flip_rank(s, p) for p in (1, 2, 3)]),
        "bijections.symbol_to_strict_shifted": (corpus, bijections.symbol_to_strict_shifted),
        "bijections.merge_split": (
            shifted, lambda sm: bijections.split_marks(bijections.merge_marks(sm[0]), sm[1])),
        "bijections.permute_ranks": (corpus, lambda s: bijections.permute_ranks(s, (2, 3, 1))),
        "serialize.symbol_to_document": (corpus, serialize.symbol_to_document),
        "serialize.document_to_symbol": (docs, serialize.document_to_symbol),
    }
    for name, (items, fn) in per_symbol.items():
        seconds = _median_time(lambda: [fn(x) for x in items], 5, caches)
        rows[f"{name}.us_per_symbol"] = seconds / len(items) * 1e6

    for order in (60, 200):
        a = qseries.partition_gf(order)
        rows[f"qseries.mul.o{order}.s"] = _median_time(lambda: a * a, 5, caches)
        rows[f"qseries.partition_gf.o{order}.s"] = _median_time(
            lambda: qseries.partition_gf(order), 3 if order == 60 else 1, caches)
        rows[f"qseries.marked_rank_gf_product.o{order}.s"] = _median_time(
            lambda: qseries.marked_rank_gf_product((Fraction(2), Fraction(3)), 2, order),
            3 if order == 60 else 1, caches)
    a = qseries.partition_gf(200)
    rows["qseries.reciprocal.o200.s"] = _median_time(a.reciprocal, 3, caches)
    clear(caches)
    return rows


def import_seconds(repeats: int = 5) -> float:
    """Median time of ``import durfee.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import durfee.cli; "
            "print(time.perf_counter() - t)")
    env = harness.child_env()
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=harness.ROOT,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def traced_run(name: str, commands: list[dict], seed: int) -> None:
    os.environ["DURFEE_THREADS"] = "1"
    sys.path.insert(0, str(harness.SRC))
    for layer in MODULES:
        importlib.import_module(f"durfee.{layer}")
    caches = all_caches()
    counters = {f"cache.{layer}.{fn}": getattr(sys.modules[f"durfee.{layer}"], fn)
                for layer, fn in CACHE_COUNTERS}
    order = random.Random(seed).sample(commands, len(commands))

    # Each command runs untraced, then traced, so host speed drifts hit
    # both sides of trace.overhead_s alike.
    failures: list[str] = []
    values = {f"{prefix}.{kind}": 0 for prefix in counters for kind in ("hits", "misses")}
    untraced = traced = 0.0
    tracer = Tracer()
    for command in order:
        untraced += run_command(command, caches, failures)
        tracer.install()
        try:
            traced += run_command(command, caches, failures)
        finally:
            tracer.uninstall()
        for prefix, cache in counters.items():
            info = cache.cache_info()
            values[f"{prefix}.hits"] += info.hits
            values[f"{prefix}.misses"] += info.misses

    values["trace.overhead_s"] = traced - untraced
    for layer in MODULES:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
        values[f"{layer}.calls"] = tracer.calls[layer]
    for check in sys.modules["durfee.verify"].CHECKS:
        values[f"verify.{check}.s"] = tracer.inclusive.get(f"verify.{check}.s", 0.0)
    values.update(fixed_rows(caches))
    values["cli.import_s"] = import_seconds()

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    top = sorted(MODULES, key=lambda m: -tracer.self_s[m])[:3]
    summary = (
        f"# {name} traced: untraced {untraced:.3f} s, traced {traced:.3f} s; top self time "
        + ", ".join(f"{m} {tracer.self_s[m]:.3f} s" for m in top)
    )
    harness.emit(harness.provenance(name, seed, True), summary, not failures,
                 2 * len(commands), len(failures), values, "per_layer")
