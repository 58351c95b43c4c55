"""Two routes to the entropy of a Poisson variable, with error certificates.

H(Z) for Z ~ Po(lam) has no closed form.  The series route sums -p ln p
over a window of O(sqrt(lam)) terms around the mean, and its certificate
bounds the whole error: both truncated tails, the normalisation over the
window and float rounding.  The asymptotic route uses the large-mean
expansion, whose error field is a heuristic scale.  This script shows both,
their agreement across the dispatch range, and the certificate sizes.
"""

import numpy as np

from poientropy import poisson_entropy, poisson_entropy_asymptotic, poisson_entropy_series

print("=== series route: tails, normalisation and rounding certified ===")
for lam in (0.5, 1.0, 20.0, 500.0, 1e6):
    value = poisson_entropy_series(lam, tol=1e-10)
    print(f"  H(Po({lam:g}))  = {value.nats:.12f} nats "
          f"(certificate {value.certified_abs_error:.2e})")

print()
print("=== asymptotic route (heuristic max(1/lam^3, 8 ulp) error label) ===")
for lam in (1e3, 4060.0, 1e6, 1e10):
    value = poisson_entropy_asymptotic(lam)
    print(f"  H(Po({lam:.3g})) = {value.nats:.6f} nats "
          f"(heuristic error {value.certified_abs_error:.1e})")

print()
print("=== the two routes agree where they overlap ===")
for lam in np.geomspace(10, 1000, 5):
    series = poisson_entropy_series(lam, tol=1e-11).nats
    asym = poisson_entropy_asymptotic(lam).nats
    print(f"  lam={lam:8.1f}: |series - asymptotic| = {abs(series - asym):.2e}")

print()
print("=== the dispatcher picks the economical route ===")
for lam in (1.0, 999.0, 1001.0, 1e7):
    value = poisson_entropy(lam)
    print(f"  lam={lam:<10g} -> {value.method}")
