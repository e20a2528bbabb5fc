"""The headline decision procedures for 2-bridge link groups.

``is_null_homotopic(s, r)`` decides whether the simple loop of slope s on
the bridge sphere bounds in the complement of the link of slope r: this
holds exactly when s lies in the Γ̂_r-orbit of {r, ∞}, which the orbit
reduction machinery decides exactly.  ``has_umpp_epimorphism`` decides
whether an epimorphism between the corresponding link groups exists that
preserves the upper meridian pair: exactly when s or s+1 lies in that
orbit.  (Nothing here is claimed about unrestricted epimorphisms.)
"""

from __future__ import annotations

import enum

from .reflections import Verdict, classify_orbit
from .slopes import INFINITY, ZERO, Slope, farey_interval


class ScanMode(enum.Enum):
    NULLHOMOTOPY = "null"
    EPIMORPHISM = "epi"


def is_null_homotopic(s: Slope, r: Slope) -> Verdict:
    """Decide whether the loop of slope s bounds in the complement of the
    link of slope r, i.e. whether s ∈ Γ̂_r · {r, ∞}."""
    return classify_orbit(s, r)


def has_umpp_epimorphism(s: Slope, r: Slope) -> bool:
    """Whether an upper-meridian-pair-preserving epimorphism exists from
    the link group of slope s onto the link group of slope r: exactly
    when s or s+1 lies in the Γ̂_r-orbit of {r, ∞}.  The orbit is invariant
    under x ↦ x + 2, so s - 1 stands in for s + 1 when s > 0; the shifted
    slope then stays inside the 64-bit bound."""
    if classify_orbit(s, r).answer:
        return True
    return classify_orbit(s - 1 if s > ZERO else s + 1, r).answer


def scan(r: Slope, max_den: int, mode: ScanMode = ScanMode.NULLHOMOTOPY) -> list[Slope]:
    """All s with 0 <= s <= 1 and denominator <= max_den, plus ∞, that
    satisfy the chosen predicate against r; sorted ascending (∞ last).

    Each candidate is decided once.  The epimorphism scan reads the null
    hits: the orbit is invariant under x ↦ -x and x ↦ x + 2, so s - 1 (or
    s + 1 at s = 0) is a hit exactly when the candidate 1 - s is, and ∞ is
    always a hit."""
    candidates = farey_interval(max_den) + [INFINITY]
    hits = [s for s in candidates if classify_orbit(s, r).answer]
    if mode is ScanMode.NULLHOMOTOPY:
        return hits
    null = set(hits)
    return [s for s in candidates if s in null or -(s - 1) in null]
