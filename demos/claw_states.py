"""
Claw states and the Hadamard support law
========================================

A puzzle key hides a shift s. Obligating publishes an image y and leaves
the prover holding (|0,x0> + |1,x1>)/sqrt(2) where f_0(x0) = f_1(x1) = y
and x0 XOR x1 = s. Measuring that state straight yields one preimage;
measuring in the Hadamard basis yields an equation (c, d) with c = d.s.
This script shows both distributions exactly, then cross-checks the
obligate shortcut against the full oracle circuit.
"""

from posverif import qsim
from posverif.bits import dot_bits, xor_bits
from posverif.puzzle import BasePuzzle, run_obligate_circuit
from posverif.rng import Rng

n = 3
rng = Rng(2024)
puz = BasePuzzle(n)
handle, trapdoor = puz.keygen(rng)

y, claw = puz.obligate(handle, trapdoor, rng)
state = claw.dense()  # the closed form as a dense vector, to read distributions
x0 = trapdoor.inv("0", y)
x1 = trapdoor.inv("1", y)
shift = xor_bits(x0, x1)
print(f"obligation y = {y}")
print(f"claw: f_0({x0}) = f_1({x1}) = y, shift s = {shift}")

# standard basis: the two claw branches, each with probability 1/2
joint = qsim.merge_registers(state, ("bit", "preimage"), "joint")
print("\nstandard-basis support (bit + preimage):")
for outcome, p in sorted(qsim.measurement_distribution(joint, "joint").items()):
    print(f"  {outcome[0]},{outcome[1:]}  p = {p:.6f}")

# Hadamard basis: uniform over the 2^n pairs (c, d) with c = d.s
h = qsim.apply_hadamard(qsim.apply_hadamard(state, "bit"), "preimage")
hjoint = qsim.merge_registers(h, ("bit", "preimage"), "hjoint")
dist = qsim.measurement_distribution(hjoint, "hjoint")
print(f"\nHadamard-basis support ({len(dist)} outcomes, each 2^-{n}):")
violations = 0
for outcome, p in sorted(dist.items()):
    c, d = outcome[0], outcome[1:]
    ok = dot_bits(d, shift) == int(c, 2)
    violations += not ok
    print(f"  c={c} d={d}  p = {p:.6f}  c == d.s: {ok}")
print(f"support violations: {violations}")

# the shortcut distribution equals the measured oracle circuit
y_circ, residual = run_obligate_circuit(handle, Rng(7))
circ_joint = qsim.merge_registers(residual, ("bit", "preimage"), "joint")
print(f"\noracle circuit produced y = {y_circ} with residual support:")
for outcome, p in sorted(qsim.measurement_distribution(circ_joint, "joint").items()):
    print(f"  {outcome[0]},{outcome[1:]}  p = {p:.6f}")
print("residual preimages invert correctly:",
      trapdoor.inv("0", y_circ) in {o[1:] for o in
                                    qsim.measurement_distribution(circ_joint, "joint")})
