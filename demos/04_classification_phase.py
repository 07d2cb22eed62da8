"""
When does an atypical trait persist?
====================================

A target empirical out-degree measure is evanescent when its rate exceeds
the cost of the trait paying for itself, and strongly persistent with
positive probability when a conditioned-tree entropy criterion holds. The
two margins trade places as the target moves away from the concentration
point; this script scans the transition, finds the least memory parameter
above which the persistence criterion holds, and exhibits a two-type
decomposition certificate.
"""

import numpy as np

from rgw import (
    OffspringLaw,
    ProbVector,
    VerdictKind,
    classify_reinforced,
    min_memory_for_persistence,
    search_two_type_decomposition,
    two_type_weak_persistence,
)

law = OffspringLaw((1, 2), (0.5, 0.5))
q = 1.0 / 3.0

print("target (p, 1-p)   verdict                          margins (ev, pe)")
for p in np.arange(0.70, 0.96, 0.05):
    rho = ProbVector((1, 2), (p, 1.0 - p))
    v = classify_reinforced(rho, law, q)
    print(f"  p = {p:.2f}       {v.kind.value:32s} "
          f"({v.margin_evanescence:+.4f}, {v.margin_persistence:+.4f})")

# the verdicts flip between p = 0.83 and p = 0.84; bracket the two
# boundaries on a fine mesh
mesh = np.arange(0.80, 0.86, 0.0005)
kinds = [classify_reinforced(ProbVector((1, 2), (p, 1.0 - p)), law, q).kind
         for p in mesh]
last_pe = max(p for p, k in zip(mesh, kinds)
              if k is VerdictKind.STRONGLY_PERSISTENT)
first_ev = min(p for p, k in zip(mesh, kinds) if k is VerdictKind.EVANESCENT)
print()
print("persistent up to p =", f"{last_pe:.4f},",
      "evanescent from p =", f"{first_ev:.4f}")

# the least memory for a given target to persist: the concentration target
# needs none, a degree-poor target needs a lot
print()
for rho in (ProbVector((1, 2), (0.2, 0.8)), ProbVector((1, 2), (0.9, 0.1))):
    needed = min_memory_for_persistence(rho, law)
    print("minimum memory for", rho.weights, "->", f"{needed:.6f}")

# a two-type reduction witnesses weak persistence: type-1 individuals carry
# one type-2 child beside their type-1 offspring (shifting their recorded
# degree up by one), type-2 individuals reproduce by a second law
chain = OffspringLaw((1,), (1.0,))
target = ProbVector((1, 2, 3), (0.5, 1.0 / 6.0, 1.0 / 3.0))
mu = ProbVector((2, 3), (1.0 / 3.0, 2.0 / 3.0))
mu_prime = ProbVector((1,), (1.0,))
cert = two_type_weak_persistence(target, law, chain, 0.5, mu, mu_prime)
print()
print("two-type certificate for", target.weights)
print("  margins   :", f"{cert.margin_growth:.6f}",
      f"{cert.margin_average:.6f}")
print("  certified :", cert.certified, " strong form:", cert.strong)

_, s, mu_hat, _ = search_two_type_decomposition(target, law, chain)
print("  search recovers mix weight", f"{s:.4f}",
      "with shifted type-1 component", mu_hat.weights, "on", mu_hat.support)
