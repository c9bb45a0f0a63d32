"""Shared pieces of the benchmark: workload data, the pinned child
environment, output checks and the provenance record.

Kept small on purpose: the timed runs spawn every ``durfee`` command from the
process that imports this module, and Linux carries a parent's resident size
into the ``ru_maxrss`` of a child it spawns.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

# The builtin SHA-256 module, not hashlib's OpenSSL backend, which would add
# about 4 MB to the spawning process and so to every child's peak RSS.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS_FILE = HERE / "workloads.json"

#: The one CLI call that does no work: interpreter start, ``import
#: durfee.cli`` and the parser build.  Its help text is not pinned, because
#: later changes may add options.
SETUP_ARGV = ("--help",)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "durfee.cli", *args]


def child_env() -> dict[str, str]:
    """Host environment minus every PYTHON*/DURFEE_* setting, plus pins.

    ``DURFEE_THREADS=1`` keeps the verify process pool off whatever the host
    says; ``PYTHONPATH`` runs the package from ``src`` without an install;
    ``PYTHONIOENCODING`` fixes the bytes of the display output.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "DURFEE_"))}
    env.update(
        PYTHONPATH=str(SRC),
        DURFEE_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONIOENCODING="utf-8",
    )
    return env


def require_source() -> None:
    if not (SRC / "durfee" / "cli.py").is_file():
        sys.exit(f"error: no durfee source under {SRC}; run from a checkout of the repository")


def load_workloads() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class OutputCheck:
    """Streams one command's stdout into SHA-256, keeping only a short tail
    so the last line can be read without holding the output."""

    TAIL = 4096

    def __init__(self) -> None:
        self._hash = sha256()
        self._tail = b""

    def update(self, chunk: bytes) -> None:
        self._hash.update(chunk)
        self._tail = (self._tail + chunk)[-self.TAIL:]

    def digest(self) -> str:
        return self._hash.hexdigest()

    def failure(self, command: dict, exit_code: int) -> str | None:
        """Why the command failed, or None when it passed every check."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        digest = self.digest()
        if digest != command["sha256"]:
            return f"stdout sha256 {digest} differs from reference {command['sha256']}"
        if command["argv"][0] == "verify":
            lines = self._tail.rstrip(b"\n").rsplit(b"\n", 1)
            if lines[-1].split(b"\t")[:2] != [b"RESULT", b"PASS"]:
                return f"verify verdict line {lines[-1][:80]!r}"
        return None


def _git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree.  Git
    does not look above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_sha() -> str:
    h = sha256()
    for path in sorted((SRC / "durfee").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "harness_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def emit(info: dict, summary: str, correct: bool, attempted: int, failed: int,
         values: dict[str, float], kind: str) -> None:
    """Print provenance, a readable summary and, last, the result object
    holding exactly the BENCHMARK.json metrics of ``kind``."""
    metrics = {}
    for spec in load_benchmark()[kind]:
        name = spec["name"]
        if name not in values:
            raise KeyError(f"metric {name} listed in BENCHMARK.json was not measured")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    print("# provenance " + json.dumps(info, sort_keys=True))
    print(summary)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
