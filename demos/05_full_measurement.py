"""The complete measurement scenario, from r(0) to Born weights and entropy.

Chains everything: regime validation -> statics -> off-diagonal collapse
(with its damping mechanisms) -> both sector registrations -> final state
(branch weights = initial diagonals, pointers at +-m_f) -> entropy budget.
Artifacts and a checksummed manifest land in runs/demo_scenario/.

Run:  python demos/05_full_measurement.py
"""

import curieweiss as cw
from curieweiss import scenario

params = cw.ModelParams(n_spins=100000, coupling_g=0.09, temperature=0.34,
                        gamma=1e-3, debye_cutoff=50.0)
state = cw.SystemState2x2(0.5, 0.5, 0.5 + 0j)  # (|up> + |down>)/sqrt(2)

report = cw.run_scenario(cw.RunConfig(params=params, state=state, samples=200))
print(f"status: {report.status}")

rep = report.regime
print(f"regime valid at margin {rep['margin']:g}: {rep['overall_valid']}")

ts = report.timescales
print("\ntime scales (hbar/J):")
print(f"  collapse      tau_red = {ts['tau_red']:12.4f}")
print(f"  bath damping  tau_2   = {ts['tau_2']:12.4f}")
print(f"  registration  tau_reg = {ts['tau_reg_quadrature']:12.1f}")
print(f"  ordering tau_red < tau_2 < tau_reg: "
      f"{ts['tau_red'] < ts['tau_2'] < ts['tau_reg_quadrature']}")

fs = report.final_state
print("\nfinal state:")
for b, name in zip(fs["branches"], ("up", "down")):
    print(f"  branch {name:4s}: weight {b['weight']:.3f}, pointer {b['pointer']:+.4f}")
print(f"  off-diagonal residue: 10^({fs['log10_offdiag_residual']:.3e})")
var_up, var_down = fs["pointer_variance"]
print(f"  pointer variance per branch: {var_up:.2e}, {var_down:.2e}")

e = report.entropy
print("\nentropy budget (nats):")
print(f"  system:  {e['s_system_initial']:.4f} -> {e['s_system_final']:.4f}"
      f"  (+{e['s_system_final'] - e['s_system_initial']:.4f} from truncation)")
print(f"  magnet:  {e['s_magnet_initial']:.1f} -> {e['s_magnet_final']:.1f}"
      f"  (ordering costs {e['s_magnet_initial'] - e['s_magnet_final']:.1f})")
print(f"  bath:    +{e['bath_entropy_change_estimate']:.1f} (quasi-static estimate)")
print(f"  total:   {e['delta_total']:+.1f}  (irreversible: > 0)")

payload = scenario.write_run(report, "runs/demo_scenario")
print(f"\nwrote {len(payload['files']) + 1} files to runs/demo_scenario/ "
      "(see manifest.json)")

failing = cw.run_scenario(cw.RunConfig(
    params=cw.ModelParams(n_spins=100000, coupling_g=0.05, temperature=0.34,
                          gamma=1e-3, debye_cutoff=50.0),
    state=state, samples=100))
print(f"\nsame run at g = 0.05 < g_c: status = {failing.status}")
print(f"  ({failing.reason})")
