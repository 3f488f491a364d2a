"""Tour of the Gaussian-sum engine: states, overlaps, detection, Wigner values.

Every state is a finite sum of Gaussian characteristic-function terms, so
tensor products, beamsplitters, detector conditioning and fidelities are all
closed-form operations.  Run from the repository root:

    python3 demos/01_phase_space_calculus.py
"""

import math

import numpy as np

from catscamp import (
    CLICK,
    NO_CLICK,
    DetectorPOVMChi,
    cat_chi,
    coherent_chi,
    condition,
    outcome_probability,
    overlap,
    purity,
    squeezed_vacuum_chi,
    substitute_beamsplitter,
    tensor,
    vacuum_chi,
    validate_state,
    wigner,
)
from catscamp.states import cat_squeezed_overlap, optimal_squeezing

# ---------------------------------------------------------------------------
# A state is three small arrays (weights, quadratic forms, linear parts):
# a cat is exactly four Gaussian terms.
# ---------------------------------------------------------------------------
cat = cat_chi(1.0, "even")
print(f"even cat of size 1: {cat.n_terms} terms, chi(0) = {cat.norm_value().real:.12f}")
print(f"purity via the trace rule: {purity(cat):.12f}")

# Overlaps come out of a 2x2 Gaussian integral per term pair.
print(f"\n|<coherent(1)|coherent(-1)>|^2 = {overlap(coherent_chi(1.0), coherent_chi(-1.0)):.6f}"
      f"   (exp(-4) = {math.exp(-4):.6f})")

# The squeezed vacuum is the Gaussian state closest to an even cat; the
# optimal squeezing has a closed form and the overlap peaks near 0.945.
s_opt = optimal_squeezing(1.0)
print(f"\noptimal squeezing for size-1 cats: s = {s_opt.s:.6f} ({s_opt.s_db:.2f} dB)")
print(f"overlap with the squeezed vacuum:  {overlap(cat, squeezed_vacuum_chi(s_opt.s)):.6f}")
print(f"closed form for comparison:        {cat_squeezed_overlap(1.0, s_opt.s):.6f}")

# ---------------------------------------------------------------------------
# Mix the cat with the squeezed vacuum on a 50:50 splitter and watch one arm
# with a Geiger-mode detector.  No click keeps the other arm.
# ---------------------------------------------------------------------------
half = math.sqrt(0.5)
joint = substitute_beamsplitter(tensor(cat, squeezed_vacuum_chi(s_opt.s)), 0, 1, half, half)
for eta in (1.0, 0.8):
    p_dark = outcome_probability(joint, 0, DetectorPOVMChi(eta, NO_CLICK))
    p_click = outcome_probability(joint, 0, DetectorPOVMChi(eta, CLICK))
    print(f"\neta = {eta}: P(dark) = {p_dark:.6f}, P(click) = {p_click:.6f}, "
          f"sum = {p_dark + p_click:.12f}")

kept, p_dark = condition(joint, 0, DetectorPOVMChi(1.0, NO_CLICK))
print(f"\nconditioned on a dark detector (eta = 1): probability {p_dark:.6f}")
print(f"the kept mode is still pure: Tr[rho^2] = {purity(kept):.9f}")

diag = validate_state(kept)
print("\ninvariant report for the conditioned state:")
print(diag.summary())

# ---------------------------------------------------------------------------
# Wigner functions in closed form; the value at the origin reads the parity.
# ---------------------------------------------------------------------------
print(f"\nW(0,0) vacuum:   {wigner(vacuum_chi(), [0.0], [0.0])[0, 0]:+.6f}  (1/pi)")
print(f"W(0,0) even cat: {wigner(cat_chi(1.0, 'even'), [0.0], [0.0])[0, 0]:+.6f}")
print(f"W(0,0) odd cat:  {wigner(cat_chi(1.0, 'odd'), [0.0], [0.0])[0, 0]:+.6f}")

q = np.linspace(-4, 4, 161)
w = wigner(cat_chi(1.0, "odd"), q, q)
print(f"odd cat: deepest Wigner minimum {w.min():.6f} "
      f"(negativity marks nonclassicality)")
