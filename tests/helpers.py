"""Independent oracles for the sieve's fast paths.

``brute_force_candidates`` deliberately does not touch the package's
k-search: it walks every k in 3..min(v-2, cap) directly and applies the
same constraint set, so agreement with ``feasible_candidates`` checks the
search path, not the constraints alone.

``divisor_scan`` is the k-search the residue search replaced: it lists
every divisor of the k-bound and filters them by (v-1) | k(k-1).  It
returns the candidate traces and the per-stage rejection counts too, so
agreement with ``sieve._k_search`` checks everything past stage 0.

``exhaustive_cap`` tries a fixed 64 exponents for every prime, so agreement
with ``sieve._cap`` checks the derived exponent ceiling that stops it early.
"""

from collections import Counter
from math import gcd, isqrt

from psu4designs.exactmath import factorize


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


def divisor_scan(v, k_bound, subdeg, p, parabolic):
    """((v, k, lambda), trace) candidates and rejection counts by reason."""
    if not parabolic and gcd(p, v - 1) != 1:
        return [], {}
    vm1 = v - 1
    effective = [gcd(d, vm1) if parabolic else d for d in subdeg]
    divs = [1]
    for r, e in factorize(k_bound).pairs:
        powers = [r**i for i in range(e + 1)]
        divs = [d * pk for d in divs for pk in powers]
    divs.sort()
    rejections = Counter()
    out = []
    for k in divs:
        if k <= 2 or k >= vm1:
            continue
        kk = k * (k - 1)
        if kk % vm1:
            rejections["NO_K_DIVISOR"] += 1
            continue
        lam = kk // vm1
        if lam >= k or lam * v >= k * k:
            rejections["LAMBDA_BOUND_FAIL"] += 1
            continue
        disc = 4 * lam * vm1 + 1
        root = isqrt(disc)
        if root * root != disc:
            rejections["SQUARE_FAIL"] += 1
            continue
        if any((lam * d) % k for d in effective):
            rejections["SUBDEG_FAIL"] += 1
            continue
        checks = [
            {"bound": d_raw, "applied": d_eff, "multiplier": lam * d_eff // k}
            for d_raw, d_eff in zip(subdeg, effective)
        ]
        out.append(((v, k, lam), {"square_root": root, "subdegree_checks": checks}))
    return out, dict(rejections)
