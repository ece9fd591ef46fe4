"""Desk-scale simulator for classically verifiable position verification.

Layers, bottom up:

- qsim: dense real statevector engine over named registers (<= 24 qubits).
- puzzle: the 1-of-2 puzzle built on a toy trapdoor claw-free family,
  plus same-challenge and independent-challenge repetition.
- nonlocal_game: the separated two-solver game and its strategy catalog.
- spacetime: exact rational 1D timing simulator with speed-1 delivery.
- protocol: the timing-constrained verification protocol family and the
  timing-free proof-of-quantumness transform, run by the same two provers
  (HonestProver, ClassicalProver).
- adversary: the two-site attack catalog and the forwarding compiler.
- stats: the seeded trial engine (tally), Wilson intervals and the
  closed-form rates.
- cli: seeded experiment runners with Wilson intervals.
"""

__version__ = "0.1.0"
