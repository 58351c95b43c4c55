"""A dependent system: random edge orientations on the n-cube.

Orient each edge of {0,1}^n with a fair coin and count the vertices with
exactly k outward edges.  The 2^n indicators are dependent only between
cube neighbours, and the Chen-Stein coefficients have closed forms that the
log-domain scalars evaluate even at n = 100 (index set 2^100).  A direct
simulation at small n validates the closed-form mean and symmetry, and at
n = 14 it lands inside a dependent (b2 > 0) entropy certificate.
"""

from poientropy import (
    entropy_bound_general,
    hypercube_coefficients,
    hypercube_monte_carlo,
    reproduce_table1,
)

print("=== closed-form coefficients across scales ===")
for n, k in ((10, 8), (30, 27), (100, 70)):
    c = hypercube_coefficients(n, k)
    print(f"  n={n:>3}, k={k:>3}: lam={c.lam.to_float():.4g}, "
          f"b1={c.b1.to_float():.4g}, b2={c.b2.to_float():.4g}, m=2^{n}")

print()
print("=== certified entropy enclosures (benchmark rows) ===")
print(f"{'n':>4} {'k':>4} {'lambda':>11} {'H(Z) nats':>10} {'rel. error':>11} {'reference':>11}")
for row in reproduce_table1():
    print(f"{row.n:>4} {row.k:>4} {row.lam:>11.4g} {row.entropy_nats:>10.3f} "
          f"{row.relative_error:>11.2e} {row.reference_relative_error:>11.2e}")

print()
print("=== the certificate knows when it does not apply ===")
try:
    entropy_bound_general(hypercube_coefficients(10, 8))
except Exception as exc:
    print(f"  n=10, k=8 -> {exc}")

print()
print("=== simulation validates the closed-form mean (n=6, k=3) ===")
mc = hypercube_monte_carlo(6, 3, replicates=200_000, master_seed=7)
print(f"  closed form lam = {mc.lam_closed_form:g}")
print(f"  empirical mean  = {mc.mean_w:.4f} +- {mc.mean_std_err:.4f}")
print(f"  plug-in entropy = {mc.entropy_plugin:.4f} "
      f"+- {mc.entropy_jackknife_se:.4f} nats (jackknife)")
print(f"  note: {mc.note}")

print()
print("=== simulation inside a dependent certificate (n=14, k=13, b2 > 0) ===")
report = entropy_bound_general(hypercube_coefficients(14, 13))
sim = hypercube_monte_carlo(14, 13, replicates=16_384, master_seed=7)
lo, hi = report.interval
print(f"  certified H(W) in [{lo:.4f}, {hi:.4f}] nats (eps = {report.epsilon:.3f})")
print(f"  plug-in entropy = {sim.entropy_plugin:.4f} "
      f"+- {sim.entropy_jackknife_se:.4f} nats (jackknife)")
