"""Floating-op counters shared by the convolution engines."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MultCounter"]


@dataclass
class MultCounter:
    """Tally of the arithmetic a run actually performed.

    multiplies  floating-point products
    additions   additions and subtractions (prefix sums, lookups, merges)
    lookups     integral-line reads in the final stage; kept separate so the
                conventional per-output-element charge of s2 can be compared
                against the multiply count without conflating the two
    """

    multiplies: int = 0
    additions: int = 0
    lookups: int = 0
