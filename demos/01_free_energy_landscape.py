"""Statics of the measuring magnet: landscape, critical coupling, Curie point.

The apparatus is a Curie-Weiss magnet with a quartic coupling, prepared in
its metastable paramagnetic state.  The measured spin tilts the free energy
F(m) = -s*g*m - (J/4)m^4 - T*S(m); once the tilt exceeds the critical
coupling g_c the central minimum disappears and the magnet must roll to a
ferromagnetic value, which is what records the outcome.

Run:  python demos/01_free_energy_landscape.py
Writes landscape_demo.csv next to the working directory.
"""

import curieweiss as cw
from curieweiss import output, statics

T = 0.34

print(f"Magnet at T = {T} J (slightly below the transition)\n")

p0 = cw.ModelParams(n_spins=100000, coupling_g=0.0, temperature=T,
                    gamma=1e-3, debye_cutoff=50.0)
tc = cw.curie_temperature(p0)
gc = cw.critical_coupling(p0)
print(f"Curie temperature (degeneracy of F(m_f) with F(0)):  T_c = {tc:.4f} J")
print(f"critical coupling at T = {T}:                        g_c = {gc:.4f} J")

print("\nStationary points of F_up(m) as the coupling g grows:")
print(f"{'g':>6} | stationary points (m, kind)")
for g in (0.0, 0.05, 0.08, 0.09):
    p = cw.ModelParams(n_spins=100000, coupling_g=g, temperature=T,
                       gamma=1e-3, debye_cutoff=50.0)
    scape = cw.stationary_magnetizations(+1, p)
    pts = ", ".join(f"({q.m:+.3f} {q.kind.value[:3]})" for q in scape.points)
    print(f"{g:6.3f} | {pts}")

print("\nBelow g_c the shifted paramagnetic well survives (the measurement")
print("would fail there); above g_c only the ferromagnetic attractor is left")
print("on the up side, with the pointer value:")
p = cw.ModelParams(n_spins=100000, coupling_g=0.09, temperature=T,
                   gamma=1e-3, debye_cutoff=50.0)
mf = cw.stationary_magnetizations(+1, p).ferromagnetic.m
print(f"  m_f(T=0.34, g=0.09) = {mf:.4f}")

p_cold = cw.ModelParams(n_spins=1000, coupling_g=0.0, temperature=0.2, gamma=1e-3,
                        debye_cutoff=50.0)
gap = cw.ferromagnetic_gap(cw.stationary_magnetizations(+1, p_cold), p_cold)
print(f"\nLow-T saturation: 1 - m_f = {gap['gap']:.3e} vs asymptote "
      f"2 exp(-2J/T) = {gap['asymptote_2exp_minus_2j_over_t']:.3e} at T = 0.2")

m, f_up, f_down = statics.landscape_table(p)
output.write_csv("landscape_demo.csv", ["m", "F_up", "F_down"],
                 [output.column(c) for c in (m, f_up, f_down)])
print("\nwrote landscape_demo.csv (columns m, F_up, F_down)")
