"""
Dropping the clock: a proof of quantumness
==========================================

Strip the timing layer and keep the four messages: key, obligations,
challenge, answers. A prover holding real claw states answers either
challenge on demand; a classical prover must commit to its obligations
before seeing the challenge, and the equation branch then catches it.
The acceptance gap is the whole point: it certifies quantum behaviour
with a purely classical verifier.  The provers are the same objects the
timed protocol places on the line; only the clock is gone.
"""

from posverif.protocol import (
    ClassicalProver,
    HonestProver,
    ProtocolConfig,
    estimate_poq,
    run_poq,
)
from posverif.stats import classical_prover_rate, honest_completeness

cfg = ProtocolConfig(n=8, k=1)

result = run_poq(cfg, seed=31, prover=HonestProver())
print("one transcript, in order:")
for label, body in result.transcript:
    print(f"  {label:<3}  {len(body):>3} bytes")
print(f"accepted: {result.accept}\n")


quantum = estimate_poq(cfg, trials=1500, seed=32, prover=HonestProver())
classical = estimate_poq(cfg, trials=2500, seed=33, prover=ClassicalProver())
print(f"quantum prover    {quantum.rate:.4f}  "
      f"[{quantum.ci_low:.4f}, {quantum.ci_high:.4f}]"
      f"   theory {honest_completeness(cfg.n, cfg.k):.4f}")
print(f"classical prover  {classical.rate:.4f}  "
      f"[{classical.ci_low:.4f}, {classical.ci_high:.4f}]"
      f"   theory {classical_prover_rate(cfg.n, cfg.k):.4f}")
print(f"\ngap: {quantum.rate - classical.rate:.4f} (quantum minus classical)")
print("the classical ceiling is 1/2 + 1/4*(1 - 2^-n) ~ 3/4 per instance,")
print("and parallel repetition drives it down exponentially in k")
