"""Exact separation probabilities for products of random permutations.

The package computes, in exact rational arithmetic, the probability that
designated disjoint blocks of elements land in pairwise distinct cycles of
the product of a uniform permutation of fixed cycle type with a uniform full
cycle - together with the companion closed forms (permutations with a given
number of cycles, fixed-point-free involutions, fixed-point lifting, one-face
map counts, strong separation and connection coefficients), and brute-force
oracles that re-derive every count by exhaustive enumeration.

The public names below are loaded on first access (PEP 562), so importing
the package runs only `permsep.errors` and `permsep.partitions`.  The
`permsep.partitions` names stay eager because ``permsep.partitions`` is both
a function and a submodule: a lazily bound function would be shadowed by the
submodule as soon as anything imported it.
"""

from importlib import import_module

from .errors import BudgetExceededError, InvariantError
from .partitions import (
    binomial,
    centralizer_order,
    compositions,
    conjugacy_class_size,
    multinomial,
    partitions,
    stirling_first_unsigned,
)

__version__ = "0.1.0"

# Each lazily exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "SepResult",
            "separated_pair_count",
            "separation_probability",
        ),
        "formulas",
    ),
    **dict.fromkeys(
        (
            "add_fixed_points_probability",
            "separation_probability_involution",
            "separation_probability_p_cycles",
        ),
        "variants",
    ),
    **dict.fromkeys(("gen_series_table", "one_face_map_series"), "polynomials"),
    "separation_probability_two_cycles": "crosscheck",
    **dict.fromkeys(
        (
            "connection_coefficient",
            "strong_probability_table",
            "strong_separation_probability",
        ),
        "strong",
    ),
}

__all__ = [
    "BudgetExceededError",
    "InvariantError",
    "binomial",
    "centralizer_order",
    "compositions",
    "conjugacy_class_size",
    "multinomial",
    "partitions",
    "stirling_first_unsigned",
    *_EXPORTS,
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read through the module on every access rather than caching here, so a
    # name rebound in its defining module is seen through the package too.
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
