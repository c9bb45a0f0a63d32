"""Fixed reference task for the timed runs, shaped like a CLI call: it
imports the standard-library modules ``durfee`` imports, then counts the
partitions of 36 by rank with recursive generators, tuples and a dict.

It imports nothing from ``durfee``, so no change to ``durfee`` can change
its speed; its wall time in a run tells how fast the host ran Python
processes during that run.
"""

import argparse  # noqa: F401
import json  # noqa: F401
from collections import Counter  # noqa: F401
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass  # noqa: F401
from enum import Enum  # noqa: F401
from fractions import Fraction  # noqa: F401
from functools import lru_cache  # noqa: F401
from itertools import product  # noqa: F401
from math import factorial  # noqa: F401
from typing import NamedTuple  # noqa: F401

N = 36
COUNT = 17977  # p(36)


def partitions(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


by_rank = {}
for p in partitions(N, N):
    rank = p[0] - len(p)
    by_rank[rank] = by_rank.get(rank, 0) + 1
if sum(by_rank.values()) != COUNT or by_rank != {-r: c for r, c in by_rank.items()}:
    raise SystemExit("reference task computed a wrong partition count")
