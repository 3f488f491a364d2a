"""The number-basis oracle, and how it pins every convention.

The truncated photon-number engine is brute force on purpose: dense vectors,
exact operator matrix elements, Kelley-Kleiner detector weights.  Anything
the Gaussian engine computes analytically can be recomputed here and
compared digit by digit.  Run from the repository root:

    python3 demos/02_fock_oracle.py
"""

import math

import numpy as np

from catscamp import (
    TwoModeFock,
    beamsplitter_fock,
    chi_from_fock,
    condition_fock,
    fidelity_fock,
    ladder,
    squeeze_fock,
)
from catscamp.fock import vacuum_vector
from catscamp.states import cat_chi, cat_fock, coherent_fock, squeezed_vacuum_fock

DIM = 60
HALF = math.sqrt(0.5)

# ---------------------------------------------------------------------------
# The squeezer built by its column recurrence agrees with the textbook series,
# also at 12 dB (s = -1.4, which needs dim 200 to hold the squeezed vacuum).
# ---------------------------------------------------------------------------
for s, dim in ((-0.7218177375894052, DIM), (-1.4, 200)):
    built = squeeze_fock(vacuum_vector(dim), s)
    series = squeezed_vacuum_fock(s, dim).amps
    print(f"squeezed vacuum at s = {s:.4f}, recurrence vs series: max |diff| = "
          f"{np.max(np.abs(built.amps - series)):.3e}")
print(f"even-number support only: odd amplitudes sum to "
      f"{np.abs(built.amps[1::2]).sum():.1e}")
s = -0.7218177375894052

# ---------------------------------------------------------------------------
# One photon on a 50:50 splitter: the textbook superposition, with the sign
# convention that the second output arm picks up +r.
# ---------------------------------------------------------------------------
one = np.zeros((6, 6), dtype=complex)
one[1, 0] = 1.0
out = beamsplitter_fock(TwoModeFock(one), HALF, HALF)
print(f"\n|1,0> through 50:50: amp(1,0) = {out.amps[1, 0].real:+.6f}, "
      f"amp(0,1) = {out.amps[0, 1].real:+.6f}")

# Coherent states stay coherent: (alpha, beta) -> (t a - r b, t b + r a).
alpha, beta, t, r = 0.9, -0.4, math.sqrt(0.7), math.sqrt(0.3)
mixed = beamsplitter_fock(
    TwoModeFock(np.outer(coherent_fock(alpha, 40).amps, coherent_fock(beta, 40).amps)), t, r
)
expect = np.outer(coherent_fock(t * alpha - r * beta, 40).amps,
                  coherent_fock(t * beta + r * alpha, 40).amps)
print(f"coherent-pair map fidelity: {np.abs(np.vdot(expect, mixed.amps))**2:.12f}")

# ---------------------------------------------------------------------------
# Photon subtraction swaps a cat's parity (and a Geiger click heralds it).
# ---------------------------------------------------------------------------
even = cat_fock(1.0, "even", DIM)
lowered, norm = ladder(even)
odd = cat_fock(1.0, "odd", DIM)
print(f"\n|<odd cat| a |even cat>|^2 after normalization: "
      f"{np.abs(np.vdot(odd.amps, lowered.amps / norm))**2:.12f}")

joint = beamsplitter_fock(
    TwoModeFock(np.outer(even.amps, squeezed_vacuum_fock(s, DIM).amps)), HALF, HALF
)
rho, p_dark = condition_fock(joint, 0, 1.0, "no_click")
print(f"comparison stage, perfect detector: P(dark) = {p_dark:.6f}")
print(f"conditioned purity Tr[rho^2] = {rho.purity():.9f}")

# ---------------------------------------------------------------------------
# The characteristic function computed from the vector matches the analytic
# four-Gaussian cat everywhere we probe.
# ---------------------------------------------------------------------------
analytic = cat_chi(1.0, "even")
rng = np.random.default_rng(1)
pts = rng.normal(scale=1.0, size=(5, 2))
print("\nchi(xi): number basis vs Gaussian sum")
for x, y in pts:
    xi = complex(x, y)
    num = chi_from_fock(even, xi)
    ana = analytic.chi([[xi]])[0]
    print(f"  xi = {xi:+.3f}: {num.real:+.9f}{num.imag:+.9f}j   "
          f"(diff {abs(num - ana):.1e})")

print(f"\nfidelity of the even cat with itself: {fidelity_fock(even, even):.12f}")
print(f"fidelity with the odd cat (orthogonal sectors): {fidelity_fock(even, odd):.1f}")
