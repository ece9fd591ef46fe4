"""End-to-end acceptance checks, one test per shipped guarantee.

Each test certifies one headline property of the package at its stated
tolerance, so `pytest tests/test_acceptance.py -v` reads as a checklist:

  c01  honest completeness across the position sweep, CI covers theory
  c02  arrival times are exact rationals matching the position algebra,
       at the sweep and as a light-cone property at any exact position
  c03  nonlocal game values: measure-and-guess ~3/4, honest-to-B ~1/4
  c04  reduction inequality p' >= 2*tau - 1 - 5*sigma for every strategy
  c05  guessing attack soundness and forwarding-compiler equivalence
  c06  teleport attack matches honest completeness on a stated EPR budget
  c07  claw states: exact Hadamard support law, obligate == oracle circuit
  c08  classical forwarding pair is transcript-identical to a lone prover
  c09  hash-challenge variant keeps completeness; oracle is consistent
  c10  CLI reruns are byte-identical for a fixed seed

Statistical checks use Wilson 95 percent intervals at trial counts chosen
so the suite stays deterministic for ACCEPT_SEED; exact checks use
Fraction equality, or compare Born probabilities, each an exact integer
weight ratio rounded once to a float, at 1e-12. c01, c03, c04, c05
and c09 spread their estimates over every core, which leaves their
counts unchanged; everything else runs on a single core. The two
heavyweight tests assert their own wall-time budget.
"""

import itertools
import json
import os
import time
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posverif import qsim
from posverif.adversary import (
    ClassicalForwardPair,
    ForwardingPair,
    GuessingPair,
    TeleportPair,
)
from posverif.bits import dot_bits, int_to_bits, unpack_bits, xor_bits
from posverif.cli import main
from posverif.nonlocal_game import (
    estimate_2of2_rate,
    estimate_win_rate,
    make_strategy,
    reduce_to_2of2,
)
from posverif.protocol import (
    RUN_UNTIL,
    ClassicalProver,
    FailureReason,
    HonestProver,
    ProtocolConfig,
    RandomOracle,
    TrialEnv,
    decode_message,
    estimate_acceptance,
    run_prpv,
)
from posverif.puzzle import BasePuzzle, RepeatedPuzzle, obligate_circuit_state, run_obligate_circuit
from posverif.rng import Rng, child_seed
from posverif.stats import (
    guessing_rate,
    honest_completeness,
    honest_to_b_rate,
    measure_and_guess_rate,
    reduction_slack,
    teleport_rate,
)

ACCEPT_SEED = 24680
ATOL = 1e-12

SWEEP = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(199, 100))


def _seed(criterion: int, index: int = 0) -> int:
    return child_seed(child_seed(ACCEPT_SEED, criterion), index)


def _covers(tally, theory: float) -> bool:
    return tally.ci_low <= theory <= tally.ci_high


def _all_strings(width: int):
    return ("".join(bits) for bits in itertools.product("01", repeat=width))


def _dist_equal(got: dict, want: dict) -> bool:
    keys = set(got) | set(want)
    return all(abs(got.get(o, 0.0) - want.get(o, 0.0)) < ATOL for o in keys)


def test_c01_completeness_sweep_covers_theory():
    """Honest acceptance at n=8, k=1 across five positions, 10^4 trials each."""
    theory = honest_completeness(8, 1)
    start = time.perf_counter()
    for index, position in enumerate(SWEEP):
        cfg = ProtocolConfig(n=8, k=1, prover_position=position)
        tally = estimate_acceptance(cfg, trials=10_000, seed=_seed(1, index),
                                    prover=HonestProver(),
                                    workers=os.cpu_count() or 1)
        assert _covers(tally, theory), (
            f"position {position}: CI [{tally.ci_low:.6f}, {tally.ci_high:.6f}] "
            f"misses {theory:.6f}"
        )
        assert set(tally.reasons) <= {FailureReason.VER_FAIL}
    assert time.perf_counter() - start < 30.0


def test_c02_arrival_times_exact_rationals():
    """Every transcript time is the exact Fraction the geometry predicts."""
    for position in SWEEP:
        cfg = ProtocolConfig(n=8, k=1, prover_position=position)
        verdict = run_prpv(cfg, seed=_seed(2), prover=HonestProver()).verdict
        want = {"y0": 2 * position, "y1": Fraction(3),
                "ans0": Fraction(4), "ans1": 7 - 2 * position}
        assert verdict.timings == want
        assert all(isinstance(t, Fraction) for t in verdict.timings.values())
        assert verdict.reason in (FailureReason.NONE, FailureReason.VER_FAIL)
    # p = 1 answers exactly on the closing deadline
    edge = run_prpv(ProtocolConfig(prover_position=Fraction(1)), seed=_seed(2, 1),
                    prover=HonestProver()).verdict
    assert edge.timings["ans1"] == Fraction(5)
    # positions outside [1, 2) miss the matching deadline, again exactly
    cfg = ProtocolConfig(n=8, k=1)
    near = run_prpv(cfg, seed=_seed(2, 2),
                    prover=HonestProver(position=Fraction(1, 2))).verdict
    assert near.reason is FailureReason.TIMING_ANS1
    assert near.timings["ans1"] == Fraction(6)
    far = run_prpv(cfg, seed=_seed(2, 3),
                   prover=HonestProver(position=Fraction(9, 4))).verdict
    assert far.reason is FailureReason.TIMING_Y0
    assert far.timings["y0"] == Fraction(9, 2)
    farther = run_prpv(cfg, seed=_seed(2, 4),
                       prover=HonestProver(position=Fraction(5, 2))).verdict
    assert farther.reason is FailureReason.TIMING_Y0
    assert farther.timings["y0"] == Fraction(5)


@given(st.fractions(min_value=-2, max_value=6, max_denominator=10**30))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_c02_light_cone_at_any_exact_position(p):
    """An honest prover at any exact p sees the key at |p| and the
    challenge at 1 + |3 - p|, and answers once it holds both; every
    arrival is that light-cone time, or None past RUN_UNTIL."""
    near, far = abs(p), abs(3 - p)
    answer = max(near, 1 + far)
    want = {"y0": 2 * near, "y1": near + far,
            "ans0": answer + near, "ans1": answer + far}
    verdict = run_prpv(ProtocolConfig(n=4, k=1), seed=_seed(2, 5),
                       prover=HonestProver(position=p)).verdict
    assert verdict.timings == {label: None if at > RUN_UNTIL else at
                               for label, at in want.items()}


def test_c03_nonlocal_game_values():
    """Game values at n=8: best-known ~3/4, honest-to-B ~1/4, brute force 1."""
    puz = BasePuzzle(8)
    start = time.perf_counter()
    mg = estimate_win_rate(puz, make_strategy("measure_and_guess", 8),
                           trials=10_000, seed=_seed(3, 0),
                           workers=os.cpu_count() or 1)
    mg_theory = measure_and_guess_rate(8)
    assert abs(mg_theory - 0.75) < 2e-3
    for target in (0.75, mg_theory):
        assert mg.ci_low <= target <= mg.ci_high, (
            f"CI [{mg.ci_low:.4f}, {mg.ci_high:.4f}] misses {target:.4f}"
        )
    hb = estimate_win_rate(puz, make_strategy("honest_to_B", 8),
                           trials=10_000, seed=_seed(3, 1),
                           workers=os.cpu_count() or 1)
    hb_theory = honest_to_b_rate(8)
    assert abs(hb_theory - 0.25) < 2e-5
    for target in (0.25, hb_theory):
        assert hb.ci_low <= target <= hb.ci_high, (
            f"CI [{hb.ci_low:.4f}, {hb.ci_high:.4f}] misses {target:.4f}"
        )
    bf = estimate_win_rate(puz, make_strategy("brute_force", 8),
                           trials=2_000, seed=_seed(3, 2),
                           workers=os.cpu_count() or 1)
    assert bf.rate == 1.0
    assert time.perf_counter() - start < 60.0


def test_c04_reduction_inequality_per_strategy():
    """Measured 2-of-2 rate respects p' >= 2*tau - 1 - 5*sigma every time."""
    puz = BasePuzzle(8)
    n_trials = 10_000
    names = ("always_fail", "brute_force", "honest_to_B", "measure_and_guess")
    for index, name in enumerate(names):
        strategy = make_strategy(name, 8)
        tau = estimate_win_rate(puz, strategy, n_trials, _seed(4, 2 * index),
                                workers=os.cpu_count() or 1)
        p2 = estimate_2of2_rate(puz, reduce_to_2of2(strategy), n_trials,
                                _seed(4, 2 * index + 1),
                                workers=os.cpu_count() or 1)
        sigma = reduction_slack(p2.rate, n_trials, tau.rate, n_trials)
        bound = 2.0 * tau.rate - 1.0 - 5.0 * sigma
        assert p2.rate >= bound, (
            f"{name}: p'={p2.rate:.4f} below bound {bound:.4f} "
            f"(tau={tau.rate:.4f}, sigma={sigma:.4f})"
        )


def test_c05_guessing_soundness_and_compiler_equivalence():
    """Challenge-guessing wins at 2^-k * completeness; compiling changes nothing."""
    for k, trials in ((1, 10_000), (2, 10_000), (4, 5_000), (8, 8_000)):
        cfg = ProtocolConfig(n=8, k=k)
        tally = estimate_acceptance(cfg, trials=trials, seed=_seed(5, k),
                                    adversaries=GuessingPair(),
                                    workers=os.cpu_count() or 1)
        theory = guessing_rate(8, k)
        assert _covers(tally, theory), (
            f"k={k}: CI [{tally.ci_low:.4f}, {tally.ci_high:.4f}] "
            f"misses {theory:.4f}"
        )
    for k in (1, 2, 4):
        cfg = ProtocolConfig(n=8, k=k)
        for i in range(100):
            seed = _seed(5, 100 * k + i)
            plain = run_prpv(cfg, seed, adversaries=GuessingPair()).verdict
            compiled = run_prpv(cfg, seed,
                                adversaries=ForwardingPair(GuessingPair())).verdict
            assert plain == compiled
            assert plain.transcript_bytes() == compiled.transcript_bytes()


def test_c06_teleport_attack_budget_and_engine_exactness():
    """Teleporting matches honest completeness on exactly k*(n+1) EPR pairs."""
    cfg = ProtocolConfig(n=8, k=1)
    tally = estimate_acceptance(cfg, trials=2_000, seed=_seed(6),
                                adversaries=TeleportPair(8, 1))
    theory = teleport_rate(8, 1)
    assert theory == honest_completeness(8, 1)
    assert _covers(tally, theory), (
        f"CI [{tally.ci_low:.4f}, {tally.ci_high:.4f}] misses {theory:.4f}"
    )
    assert set(tally.reasons) <= {FailureReason.VER_FAIL}

    # drive one trial by hand and count the pairs it consumes
    puz = RepeatedPuzzle(8, 1)
    handle, trapdoor = puz.keygen(Rng(_seed(6, 1)))
    env = TrialEnv(puz, handle, trapdoor)
    pair = TeleportPair(8, 1)
    assert pair.entanglement_budget == 9
    trial = pair.new_trial(env, actor_seed=_seed(6, 2))
    y_bytes, m = trial.u1()
    n_msg = trial.u2("1")
    y1_bytes, ans1 = trial.u3(m, "1")
    assert trial.pairs_used == 9
    assert y_bytes == y1_bytes and trial.u4(n_msg, "1") == ans1

    # teleport-then-correct commutes with measuring: every Bell branch, exactly
    claw = qsim.prepare_claw_state("010", "110")
    skewed = qsim.apply_hadamard(qsim.prepare_claw_state("01", "10"), "preimage")
    for state in (claw, skewed):
        psi = qsim.merge_registers(state, state.names(), "src")
        q = psi.q
        ref_std = qsim.measurement_distribution(psi, "src")
        ref_had = qsim.measurement_distribution(qsim.apply_hadamard(psi, "src"), "src")
        working = qsim.bell_circuit(qsim.tensor(psi, qsim.make_epr_pairs(q)), "src", "S")
        for k1 in _all_strings(q):
            p1, after_src = qsim.collapse(working, "src", k1)
            for k0 in _all_strings(q):
                p0, remote = qsim.collapse(after_src, "S", k0)
                assert abs(p1 * p0 - 4.0 ** -q) < ATOL
                std = qsim.measurement_distribution(remote, "R")
                assert _dist_equal(std, {xor_bits(o, k0): p for o, p in ref_std.items()})
                had = qsim.measurement_distribution(qsim.apply_hadamard(remote, "R"), "R")
                assert _dist_equal(had, {xor_bits(o, k1): p for o, p in ref_had.items()})


def test_c07_claw_support_law_and_circuit_equivalence():
    """Hadamard support is {c = d.shift} uniformly; obligate matches the circuit."""
    for index, n in enumerate((2, 3, 4)):
        for key_index in range(3):
            puz = BasePuzzle(n)
            rng = Rng(_seed(7, 10 * index + key_index))
            handle, trapdoor = puz.keygen(rng)
            y, claw = puz.obligate(handle, trapdoor, rng)
            state = claw.dense()
            shift = xor_bits(trapdoor.inv("0", y), trapdoor.inv("1", y))
            h = qsim.apply_hadamard(qsim.apply_hadamard(state, "bit"), "preimage")
            joint = qsim.merge_registers(h, ("bit", "preimage"), "joint")
            dist = qsim.measurement_distribution(joint, "joint")
            for outcome in _all_strings(n + 1):
                c, d = outcome[0], outcome[1:]
                want = 2.0 ** -n if dot_bits(d, shift) == int(c, 2) else 0.0
                assert abs(dist.get(outcome, 0.0) - want) < ATOL

    # at n=3, the obligate shortcut agrees with the measured oracle circuit
    n = 3
    puz = BasePuzzle(n)
    handle, trapdoor = puz.keygen(Rng(_seed(7, 100)))
    circuit = obligate_circuit_state(handle)
    image_dist = qsim.measurement_distribution(circuit, "image")
    assert len(image_dist) == 1 << n

    def claw_dist(y: str) -> dict:
        return {"0" + trapdoor.inv("0", y): 0.5, "1" + trapdoor.inv("1", y): 0.5}

    for y in _all_strings(n):
        assert abs(image_dist[y] - 2.0 ** -n) < ATOL
        p, residual = qsim.collapse(circuit, "image", y)
        assert abs(p - 2.0 ** -n) < ATOL
        joint = qsim.merge_registers(residual, ("bit", "preimage"), "joint")
        assert _dist_equal(qsim.measurement_distribution(joint, "joint"), claw_dist(y))

    y, residual = run_obligate_circuit(handle, Rng(_seed(7, 101)))
    joint = qsim.merge_registers(residual, ("bit", "preimage"), "joint")
    assert _dist_equal(qsim.measurement_distribution(joint, "joint"), claw_dist(y))


def test_c08_classical_forwarding_matches_lone_prover():
    """Forwarding pair and a lone tape prover produce identical transcripts."""
    for k, rounds in ((1, 100), (2, 40)):
        cfg = ProtocolConfig(n=8, k=k)
        for i in range(rounds):
            seed = _seed(8, 1000 * k + i)
            paired = run_prpv(cfg, seed, adversaries=ClassicalForwardPair()).verdict
            alone = run_prpv(cfg, seed, prover=ClassicalProver()).verdict
            assert paired.transcript_bytes() == alone.transcript_bytes()
            assert (paired.accept, paired.reason) == (alone.accept, alone.reason)


def test_c09_hash_challenge_completeness_and_oracle():
    """Hashed challenges keep honest completeness; the oracle behaves."""
    cfg = ProtocolConfig(n=8, k=4, lam=16, hashed=True)
    theory = honest_completeness(8, 4)
    hashed = estimate_acceptance(cfg, trials=4_000, seed=_seed(9, 0),
                                 prover=HonestProver(),
                                 workers=os.cpu_count() or 1)
    assert _covers(hashed, theory), (
        f"hashed CI [{hashed.ci_low:.4f}, {hashed.ci_high:.4f}] misses {theory:.4f}"
    )
    plain = estimate_acceptance(replace(cfg, hashed=False), trials=4_000,
                                seed=_seed(9, 1),
                                prover=HonestProver(),
                                workers=os.cpu_count() or 1)
    assert _covers(plain, theory)
    assert max(hashed.ci_low, plain.ci_low) <= min(hashed.ci_high, plain.ci_high)

    # the announced challenge is the oracle image of the XORed nonces,
    # and every trial draws fresh nonces
    nonce_pairs = []
    challenges = set()
    for i in range(20):
        seed = _seed(9, 100 + i)
        verdict = run_prpv(cfg, seed, prover=HonestProver()).verdict
        _, pk_parts = decode_message(verdict.transcript["pk"])
        nonce0, _ = unpack_bits(pk_parts[1])
        nonce1 = Rng(child_seed(seed, 1)).bits(cfg.lam)
        oracle = RandomOracle(child_seed(seed, 3), cfg.lam, cfg.k)
        assert verdict.challenge == oracle.query(xor_bits(nonce0, nonce1))
        nonce_pairs.append((nonce0, nonce1))
        challenges.add(verdict.challenge)
    assert len(set(nonce_pairs)) == len(nonce_pairs)
    assert len(challenges) > 1

    oracle = RandomOracle(_seed(9, 2), in_width=16, out_width=4)
    other = RandomOracle(_seed(9, 3), in_width=16, out_width=4)
    queries = [Rng(_seed(9, 4 + j)).bits(16) for j in range(64)]
    first = [oracle.query(x) for x in queries]
    assert [oracle.query(x) for x in reversed(queries)] == list(reversed(first))
    assert any(oracle.query(x) != other.query(x) for x in queries)


def test_c10_cli_reruns_byte_identical(tmp_path):
    """Identical invocations write identical bytes; the seed drives them."""
    runs = (
        ["completeness", "--pos", "3/2", "--trials", "150", "--seed", "42"],
        ["attack", "--name", "guess", "--trials", "150", "--seed", "42"],
        ["nonlocal", "--name", "measure_and_guess", "--trials", "300", "--seed", "42"],
        ["poq", "--trials", "100", "--seed", "42"],
        ["trace", "--seed", "42"],
        ["completeness", "--pos", "3/2", "--trials", "100", "--seed", "42",
         "--format", "json"],
    )
    for index, argv in enumerate(runs):
        first = tmp_path / f"a{index}.out"
        second = tmp_path / f"b{index}.out"
        code_a = main([*argv, "--out", str(first)])
        code_b = main([*argv, "--out", str(second)])
        assert code_a == code_b
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0
    json_path = tmp_path / "a5.out"
    assert "rows" in json.loads(json_path.read_text())
    traced = tmp_path / "t1.out"
    reseeded = tmp_path / "t2.out"
    main(["trace", "--seed", "42", "--out", str(traced)])
    main(["trace", "--seed", "43", "--out", str(reseeded)])
    assert traced.read_bytes() != reseeded.read_bytes()
