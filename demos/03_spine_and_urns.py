"""
Lineage urns, spine chains, and the replacement matrix
======================================================

Two auxiliary chains expose the mechanics of reinforcement. The lineage urn
follows one line of descent and records every draw; its census obeys a law
of large numbers with the base law as limit. The spine urn reweights draws
by an activity profile and models the distinguished line of a size-biased
tree; its stationary out-degree frequencies are predicted exactly by the
leading left eigenvector of a small replacement matrix.
"""

import numpy as np

from rgw import (
    OffspringLaw,
    RngStream,
    law_from_activity,
    linf_distance,
    replacement_matrix,
    simulate_reinforced_urn,
    simulate_spine_urn,
)

law = OffspringLaw((1, 2), (0.5, 0.5))
q = 1.0 / 3.0
rng = RngStream(7)

# the unweighted lineage urn: memory only redistributes which ancestor is
# copied, so the census of draws still converges to the base law
_, census = simulate_reinforced_urn(law, q, 200_000, rng.child(1))
print("lineage urn census after 2e5 draws:", census.normalize().weights)
print("base law                          :", law.weights)

# tilting by activities a = (1/2, 4/3) makes degree-2 draws more sticky;
# this particular profile reproduces the concentration target of the tree
activities = np.array([0.5, 4.0 / 3.0])
target = law_from_activity(activities, law, q)
print()
print("activity profile", activities, "-> stationary law", target.weights)

freq, _ = simulate_spine_urn(law, q, activities, 300_000, rng.child(2))
print("spine urn frequencies after 3e5 steps:", freq.weights,
      "  linf error", f"{linf_distance(freq, target):.4f}")

# the same stationary law falls out of linear algebra: build the replacement
# matrix of the urn and read its leading left eigenvector
spec = replacement_matrix(law, q, activities)
print()
print("replacement matrix:")
print(spec.matrix)
print("leading eigenvalue     :", f"{spec.eigenvalue:.15f}")
print("left-eigenvector law   :", spec.support_distribution.weights)
print("agrees with simulation :",
      linf_distance(spec.support_distribution, freq) < 0.01)
