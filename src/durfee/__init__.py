"""Exact enumeration, bijections, and q-series cross-checks for rank
statistics of marked Durfee symbols.

The package loads lazily (PEP 562): ``import durfee`` imports no submodule,
and a name below is imported from its module on first use, so a command
line process loads only what it runs."""

import sys

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bijections": """flip_rank from_strict_shifted merge_marks permute_ranks rank_permuter
        split_marks subscript_minima subscripts symbol_from_strict_shifted
        symbol_to_strict_shifted to_strict_shifted""",
    "marked": """KMarkedSymbol PartitionPair ValidationResult balanced_numbers balanced_parts
        count_kmarked deficiencies enumerate_kmarked is_strict_shifted_pair
        is_strict_shifted_symbol is_valid ith_rank kmarked_rank_counts
        kmarked_rank_distribution total_kmarked validate""",
    "moments": """binom check_moment_identity marked_count_formula rank_moment solution_count
        solution_count_brute symmetrized_moment""",
    "partitions": """Partition conjugate count_rank durfee_side enumerate_partitions rank
        rank_distribution""",
    "qseries": """QSeries marked_rank_gf marked_rank_gf_partial_fractions marked_rank_gf_product
        odd_rank_gf partition_gf rank_gf""",
    "symbols": """DurfeeSymbol Flavor count_durfee_rank durfee_rank_distribution enumerate_durfee
        from_durfee to_durfee""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "serialize", "verify"}

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # ``__import__`` takes the interpreter's own import path, which
    # ``python -X importtime`` reports; ``importlib.import_module`` does not.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(_MODULE_OF[name]), name)
    return value
