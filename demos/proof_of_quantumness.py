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
    ProofOfQuantumness,
    ProtocolConfig,
)
from posverif.rng import child_seed
from posverif.stats import classical_prover_rate, honest_completeness, wilson_interval

cfg = ProtocolConfig(n=8, k=1)
poq = ProofOfQuantumness(cfg)

result = poq.run(HonestProver(), seed=31)
print("one transcript, in order:")
for label, body in result.transcript:
    print(f"  {label:<3}  {len(body):>3} bytes")
print(f"accepted: {result.accept}\n")


def rate(prover, trials, seed):
    wins = sum(poq.run(prover, child_seed(seed, i)).accept
               for i in range(trials))
    low, high = wilson_interval(wins, trials)
    return wins / trials, low, high


q_rate, q_low, q_high = rate(HonestProver(), trials=1500, seed=32)
c_rate, c_low, c_high = rate(ClassicalProver(), trials=2500, seed=33)
print(f"quantum prover    {q_rate:.4f}  [{q_low:.4f}, {q_high:.4f}]"
      f"   theory {honest_completeness(cfg.n, cfg.k):.4f}")
print(f"classical prover  {c_rate:.4f}  [{c_low:.4f}, {c_high:.4f}]"
      f"   theory {classical_prover_rate(cfg.n, cfg.k):.4f}")
print(f"\ngap: {q_rate - c_rate:.4f} (quantum minus classical)")
print("the classical ceiling is 1/2 + 1/4*(1 - 2^-n) ~ 3/4 per instance,")
print("and parallel repetition drives it down exponentially in k")
