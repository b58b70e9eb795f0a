"""Registration: the magnet rolls downhill and records the outcome.

Each diagonal sector obeys hbar/gamma dm/dt = h (1 - m/tanh(h/T)) with
h = s g + J m^3, a descent on the tilted free energy.  Above g_c the up
sector climbs from 0 to +m_f (and the down sector to -m_f) after a delay
tau_reg set by the bottleneck where the rate dips to g - g_c; below g_c it
parks at the shifted paramagnetic value and the measurement fails.

Run:  python demos/04_registration.py
"""

import curieweiss as cw
from curieweiss import output, statics

p = cw.ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                   gamma=1e-3, debye_cutoff=50.0)

up = cw.integrate_registration(+1, p, t_max=6e5)
down = cw.integrate_registration(-1, p, t_max=6e5)
print(f"up sector:   {up.terminal.value}, m_final = {up.m_final:+.5f}")
print(f"down sector: {down.terminal.value}, m_final = {down.m_final:+.5f}")

tau_q = cw.registration_time_quadrature(p)
tau_a = cw.registration_time_asymptotic(p)
threshold = statics.registration_threshold(p)
print(f"\nregistration time (bottleneck quadrature): {tau_q:10.1f} hbar/J")
print(f"near-critical closed form:                 {tau_a:10.1f}")
print(f"ODE crossing of m = {threshold:.3f}:                 "
      f"{cw.crossing_times(up, [threshold], p)[0]:10.1f}")

fit = cw.asymptotic_rate(up, p)
print(f"\ntail approach to m_f: fitted rate {fit['tail_rate_fitted']:.3e}"
      f" vs gamma*J/hbar = {fit['tail_rate_predicted']:.3e}")

p_weak = cw.ModelParams(n_spins=100000, coupling_g=0.05, temperature=0.34,
                        gamma=1e-3, debye_cutoff=50.0)
trapped = cw.integrate_registration(+1, p_weak, t_max=6e5)
print(f"\nwith g = 0.05 < g_c: {trapped.terminal.value} at m = {trapped.m_final:.4f}"
      f" (about g/T = {p_weak.coupling_g / p_weak.temperature:.3f}) -> no record")

output.write_dat("registration_demo.dat", [output.column(up.times), output.column(up.m)])
print("\nwrote registration_demo.dat (t, m): slow exit, fast roll, saturation")
