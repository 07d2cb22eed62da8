"""
Rate functions of the reinforced branching process
==================================================

The uniform offspring law on {1, 2} with memory 1/3 is the worked example
where every large-deviation object has a closed form. This script evaluates
the quadrature implementation against those closed forms, then walks the
convex-duality chain that links the rate function, the log moment
generating functional, and the growth exponent.
"""

import math

import numpy as np

from rgw import (
    LogWeights,
    OffspringLaw,
    ProbVector,
    concentration_target,
    growth_exponent,
    log_degree_weights,
    min_rate_over_halfspace,
    pair,
    reinforced_log_mgf,
    reinforced_rate,
    relative_entropy,
)

law = OffspringLaw((1, 2), (0.5, 0.5))
q = 1.0 / 3.0

# closed form for this law: L(x, y) = log 2 + max - log(3 - e^(min - max))
def closed_log_mgf(x, y):
    hi, lo = max(x, y), min(x, y)
    return math.log(2.0) + hi - math.log(3.0 - math.exp(lo - hi))

print("log moment generating functional, quadrature vs closed form")
for x, y in [(0.0, 0.0), (1.0, -1.0), (-2.0, 2.0), (0.3, 0.7)]:
    got = reinforced_log_mgf(LogWeights((1, 2), (x, y)), law, q)
    want = closed_log_mgf(x, y)
    print(f"  lambda = ({x:+.1f}, {y:+.1f})   "
          f"quadrature {got:.12f}   closed {want:.12f}")

# the convex conjugate over the simplex is the rate of seeing an atypical
# empirical out-degree measure at a uniformly random vertex
print()
print("rate curve, rho = (p, 1 - p)")
print("  p     reinforced    memoryless")
for p in np.arange(0.1, 0.95, 0.2):
    rho = ProbVector((1, 2), (p, 1.0 - p))
    with_memory = reinforced_rate(rho, law, q).value
    without = relative_entropy(rho, law)
    print(f"  {p:.2f}  {with_memory:.8f}    {without:.8f}")

# the zero of the rate curve is the concentration target; memory drags it
# toward high degrees compared with plain size-biasing
target = concentration_target(law, q)
memoryless = concentration_target(law, 0.0)
print()
print("concentration target with memory   ", target.weights)
print("concentration target, memoryless   ", memoryless.weights)
print("rate at the target                 ",
      reinforced_rate(target, law, q).value)

# duality fingerprint: pairing the target with log degrees and subtracting
# its rate recovers the growth exponent of the expected population size
ln = log_degree_weights(law.support)
lhs = pair(target, ln) - reinforced_rate(target, law, q).value
rhs = growth_exponent(law, q)
print()
print("duality check: <target, log k> - rate =", f"{lhs:.15f}")
print("growth exponent log(8/5)             =", f"{rhs:.15f}")

# rare-event cost of a linear constraint: at least 80 percent of vertices
# with out-degree 2, which the typical tree already misses narrowly
argmin, value = min_rate_over_halfspace(law, q, (0.0, 1.0), 0.8)
print()
print("cheapest measure with freq(2) >= 0.8:", argmin.weights,
      "cost", f"{value:.12f}")
