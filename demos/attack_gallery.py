"""
Attack gallery for the timed protocol
=====================================

Two colluding actors flank the claimed position: A0 next to V0, A1 next
to V1, joined by a private channel. Their best tricks and where each one
tops out, against the honest prover's completeness:

  guess            commit to a guessed challenge, win 2^-k of the time
  forward compile  right actor only forwards the challenge; left actor
                   replays the one entry of its 2^k reply table that the
                   challenge selects; changes nothing for tape-based pairs
  teleport         spend k*(n+1) EPR pairs to act like the honest prover
  classical_forward replay a lone classical prover's tape from both ends
"""

from posverif.adversary import make_attack
from posverif.protocol import HonestProver, ProtocolConfig, estimate_acceptance, run_prpv
from posverif.stats import honest_completeness

n, k = 8, 2
cfg = ProtocolConfig(n=n, k=k)
trials = 1500

honest = estimate_acceptance(cfg, trials, seed=900, prover=HonestProver())
print(f"timed protocol at n = {n}, k = {k}, {trials} trials each")
print("strategy                rate     95% interval        theory")
print(f"{'honest prover':<22}  {honest.rate:.4f}   "
      f"[{honest.ci_low:.4f}, {honest.ci_high:.4f}]    {honest_completeness(n, k):.4f}")
for name in ("guess", "forward_compiled_guess", "teleport", "classical_forward"):
    pair = make_attack(name, cfg)
    tally = estimate_acceptance(cfg, trials, seed=901, adversaries=pair)
    print(f"{name:<22}  {tally.rate:.4f}   "
          f"[{tally.ci_low:.4f}, {tally.ci_high:.4f}]    {pair.rate(n, k):.4f}")

# compiling the guessing pair is invisible run by run, not just on average
plain = run_prpv(cfg, seed=77, adversaries=make_attack("guess", cfg)).verdict
compiled = run_prpv(cfg, seed=77,
                    adversaries=make_attack("forward_compiled_guess", cfg)).verdict
print(f"\ncompiled run equals plain run, byte for byte: "
      f"{plain.transcript_bytes() == compiled.transcript_bytes()}")
print("teleporting matches honest completeness but needs entanglement that")
print(f"scales with the protocol: {k} * ({n} + 1) = {k * (n + 1)} EPR pairs per run")
