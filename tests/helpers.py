"""Independent brute-force oracles for the sieve's fast paths.

``brute_force_candidates`` deliberately does not touch the package's
divisor enumeration: it walks every k in 3..min(v-2, cap) directly and
applies the same constraint set, so agreement with ``feasible_candidates``
checks the search path, not the constraints alone.

``exhaustive_cap`` tries a fixed 64 exponents for every prime, so agreement
with ``sieve._cap`` checks the derived exponent ceiling that stops it early.
"""

from math import gcd, isqrt


def brute_force_candidates(v, k_bound, subdeg, p, parabolic, k_cap=10**6):
    if not parabolic and gcd(p, v - 1) != 1:
        return []
    effective = [gcd(d, v - 1) if parabolic else d for d in subdeg]
    vm1 = v - 1
    out = []
    for k in range(3, min(v - 2, k_cap) + 1):
        kk = k * (k - 1)
        if kk % vm1:
            continue
        if k_bound % k:
            continue
        lam = kk // vm1
        if lam >= k or lam * v >= k * k:
            continue
        disc = 4 * lam * vm1 + 1
        r = isqrt(disc)
        if r * r != disc:
            continue
        if any((lam * d) % k for d in effective):
            continue
        out.append((v, k, lam))
    return out


def exhaustive_cap(holds, p):
    """Largest a <= 64 with holds(p^a, a); 0 when even a=1 fails."""
    best = 0
    for a in range(1, 65):
        if holds(p**a, a):
            best = a
    return best
