"""Collapse of the off-diagonal blocks and the two recurrence killers.

With uniform couplings, r(t) = r(0) cos^N(2gt/hbar) collapses over
tau_red = hbar/(g sqrt(2N)) but revives perfectly at every multiple of
pi*hbar/2g.  The phonon bath multiplies the amplitude by exp(-(t/tau_2)^4);
a small spread of the couplings g_n multiplies the peaks by
exp(-(t/tau_2')^2).  Either mechanism alone makes the collapse permanent.

Run:  python demos/02_collapse_and_recurrences.py
"""

import math

import numpy as np

import curieweiss as cw
from curieweiss import output

p = cw.ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                   gamma=1e-3, debye_cutoff=50.0)
r0 = 0.5 + 0j

tau_red = cw.reduction_time(p)
tau_2 = cw.decay_time_bath(p)
t1 = math.pi / (2 * p.coupling_g)
print(f"reduction time     tau_red = {tau_red:.4f}  (hbar/J units)")
print(f"bath decay time    tau_2   = {tau_2:.4f}")
print(f"first recurrence   t_1     = {t1:.4f}")

print("\n|r(t)|/|r(0)| through the collapse (uniform couplings, no bath):")
uniform = cw.sample_couplings(p, seed=0)  # delta_g = 0: N copies of g
for t in (0.0, 0.5 * tau_red, tau_red, 2 * tau_red, 4 * tau_red):
    v = abs(cw.envelope(t, uniform, r0)) / abs(r0)
    print(f"  t = {t:8.4f}: {v:.6f}   (gaussian law: {math.exp(-(t/tau_red)**2):.6f})")

from curieweiss.offdiag import log_recurrence_height_bath

log_h = log_recurrence_height_bath(p)
print(f"\nBath suppression of the first recurrence: exp({log_h:.3e})")
print("  -> log10 height =", f"{log_h / math.log(10):.3e}",
      "(the peak is annihilated, reported in log space)")

# dispersion alone, small system so the numbers stay printable
pd = cw.ModelParams(n_spins=1000, coupling_g=0.09, delta_g=0.0045,
                    temperature=0.34, gamma=0.0, debye_cutoff=50.0)
cv = cw.sample_couplings(pd, seed=1)
tau_2p = cw.dispersion_decay_time(pd)
print(f"\nCoupling dispersion delta_g/g = 0.05, N = 1000: tau_2' = {tau_2p:.4f}")
peak = abs(cw.envelope(t1, cv, r0)) / abs(r0)
print(f"  first peak height: {peak:.3e}"
      f"  (gaussian estimate {math.exp(-pd.n_spins*math.pi**2*0.05**2/2):.3e})")

times = np.linspace(0.0, 2.2 * t1, 3001)
traj = cw.offdiag_trajectory(pd, r0, times, couplings=cv, include_bath=False)
output.write_dat("collapse_demo.dat", [output.column(times), output.column(traj.log10_abs)])
print("\nwrote collapse_demo.dat (t, log10 |r|): plot to see the damped revivals")
