"""
Triangulating expected population size three ways
=================================================

For small depths the expected population of the reinforced tree can be
enumerated exactly by dynamic programming over out-degree histograms. This
script pits that enumeration against direct simulation of tree campaigns and
against the importance-sampling estimator that follows a single distinguished
line, then pushes the estimator to depth 16 to read off the growth exponent.
"""

import math

from rgw import (
    OffspringLaw,
    RngStream,
    enumerate_expected_counts,
    growth_exponent,
    many_to_one_estimate,
    simulate_tree_campaign,
)

law = OffspringLaw((1, 2), (0.5, 0.5))
q = 1.0 / 3.0
rng = RngStream(2024)

# a campaign cut to depth n is the depth-n campaign of its stream, so one
# depth-6 campaign gives every depth
camp = simulate_tree_campaign(law, q, 6, 40_000, rng.child(6))

print("depth  exact        campaign mean (z)   single-line est (z)")
for n in (2, 4, 6):
    exact = sum(enumerate_expected_counts(law, q, n).values())

    sizes = camp.populations[:, n].astype(float)
    se_camp = sizes.std(ddof=1) / math.sqrt(len(sizes))
    z_camp = (sizes.mean() - exact) / se_camp

    est, se = many_to_one_estimate(law, q, n, 40_000, None, rng.child(100 + n))
    z_m2o = (est - exact) / se

    print(f"  {n}    {exact:10.6f}   {sizes.mean():10.6f} ({z_camp:+.2f})"
          f"    {est:10.6f} ({z_m2o:+.2f})")

# z-scores should sit within a few units of zero; the two estimators use
# disjoint randomness and disagree with the enumeration independently

# at depth 16 direct enumeration is out of reach but the single-line
# estimator still works, and its logarithm per generation approaches the
# analytic growth exponent
n = 16
est, se = many_to_one_estimate(law, q, n, 200_000, None, rng.child(999))
print()
print("depth 16 expected size estimate:", f"{est:.3f} +- {se:.3f}")
print("log(est)/16      =", f"{math.log(est) / n:.6f}")
print("growth exponent  =", f"{growth_exponent(law, q):.6f}")

# memoryless cross-check: at q = 0 the expectation is just mean^n
plain = sum(enumerate_expected_counts(law, 0.0, 8).values())
print()
print("q = 0 depth 8 enumeration:", f"{plain:.10f}", " vs 1.5^8 =",
      f"{1.5 ** 8:.10f}")
