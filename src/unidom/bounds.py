"""Closed-form size bounds for graphs with a unique minimum dominating set.

Everything here is exact: integers throughout, with a rational only where
a formula genuinely produces one (Vizing's bound at odd n - gamma).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _halves(gamma: int) -> tuple[int, int]:
    # (ceil(gamma/2), floor(gamma/2))
    return (gamma + 1) // 2, gamma // 2


def phi(n: int, gamma: int) -> int:
    """Size of the overflow tail in the extremal bipartite construction.

    The first two building stages hold 3*gamma + (2*ceil(g/2) - floor(g/2) + 1)
    vertices; phi counts how many vertices of an order-n graph spill past that.
    Defined for n >= 3*gamma, where the first stage fits.
    """
    if n < 1 or gamma < 1:
        raise ValueError("n and gamma must be positive")
    if n < 3 * gamma:
        raise ValueError("requires n >= 3*gamma")
    ch, fh = _halves(gamma)
    return max(0, n - 3 * gamma - (2 * ch - fh + 1))


def bipartite_bound(n: int, gamma: int) -> int:
    """The paper's conjectured maximum size of a bipartite graph with a
    unique minimum dominating set, as transcribed, for gamma >= 2 and
    n >= 3*gamma.

    Same three-part structure as the displayed formula (base, capped middle
    block, overflow tail); the tail sum is folded to a closed form, and the
    test suite checks it against a term-by-term evaluation of the formula.

    Erratum: this is not an upper bound.  The exhaustive search meets it at
    (11, 3) and (12, 3), but with its order cap raised it finds larger
    bipartite graphs with a unique minimum dominating set of 4 vertices:
    ``L???GOooFg^?~?`` at (13, 4), with 22 edges against 21 and not
    perfectly dominated, and ``N????CKKE?^o~_~_^o?`` at (15, 4), with 35
    edges against 31 and perfectly dominated.  So restricting to perfect
    domination, as the paper's constructions are, does not save the
    formula.  The tests confirm both graphs by brute force.  The known
    constructions above it are the hub family (the (13, 4) graph is a
    member) and the one-star family (the (15, 4) graph is one), both
    defined under Measurements in ROADMAP.md; their builders are item 2
    there.  Only the paper's abstract is at hand, so whether the conjecture
    or this transcription of it is off is unknown.
    """
    if gamma < 2:
        raise ValueError("bound requires gamma >= 2 (see star_bound for gamma = 1)")
    if n < 3 * gamma:
        raise ValueError("bound requires n >= 3*gamma")
    ch, fh = _halves(gamma)
    base = 2 * gamma + 2 * ch * fh
    middle = min(n - 3 * gamma, 2 * ch - fh + 1) * (2 * ch + 1)
    m = phi(n, gamma)
    # sum of ceil(i/2) for i = 1..m
    tail = m * (2 * ch + 1) + ((m + 1) // 2) * ((m + 2) // 2)
    return base + middle + tail


def star_bound(n: int) -> int:
    """Maximum size at gamma = 1: the star K_{1,n-1} with n - 1 edges."""
    if n < 3:
        raise ValueError("a unique dominator needs n >= 3")
    return n - 1


def n3g_bound(gamma: int) -> int:
    """Bipartite bound specialized to n = 3*gamma."""
    if gamma < 2:
        raise ValueError("requires gamma >= 2")
    ch, fh = _halves(gamma)
    return 2 * gamma + 2 * ch * fh


def fischermann_bound(n: int, gamma: int) -> int:
    """Fischermann et al.'s bound C(n-gamma, 2) - gamma*(gamma-2) for
    uniquely dominated graphs without the bipartite restriction."""
    if gamma < 2:
        raise ValueError("requires gamma >= 2")
    if n < 3 * gamma:
        raise ValueError("requires n >= 3*gamma")
    return comb(n - gamma, 2) - gamma * (gamma - 2)


def vizing_bound(n: int, gamma: int):
    """Vizing's maximum size (n-gamma)(n-gamma+2)/2 for domination number gamma.

    Returned exactly: an int when the product is even, otherwise a Fraction
    (the classical statement carries no floor, and none is guessed here).
    No graph has fewer vertices than its domination number, so n < gamma
    is rejected; n = gamma gives 0, the edgeless graph.
    """
    if gamma < 2:
        raise ValueError("requires gamma >= 2")
    if n < gamma:
        raise ValueError("requires n >= gamma")
    num = (n - gamma) * (n - gamma + 2)
    return num // 2 if num % 2 == 0 else Fraction(num, 2)
