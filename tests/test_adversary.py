"""Attack-pair tests: acceptance rates against theory, compiler replay
equality, entanglement budget accounting, registry guards, and the
import rule that keeps every quantum step of a run in the puzzle."""

import ast
from functools import partial
from pathlib import Path

import pytest

from posverif.adversary import (
    ATTACK_NAMES,
    ClassicalForwardPair,
    ForwardingPair,
    GuessingPair,
    TeleportPair,
    make_attack,
)
from posverif.errors import ConfigInvalid
from posverif.protocol import (
    ClassicalProver,
    FailureReason,
    ProtocolConfig,
    RandomOracle,
    TrialEnv,
    estimate_acceptance,
    run_prpv,
    run_roprpv,
)
from posverif.puzzle import RepeatedPuzzle
from posverif.rng import Rng, child_seed
from posverif.stats import (
    classical_prover_rate,
    guessing_rate,
    honest_completeness,
    teleport_rate,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "posverif"


class TestGuessingAttack:
    @pytest.mark.parametrize("k,trials", [(1, 2000), (2, 2000), (4, 2000),
                                          (8, 2500)])
    def test_rate_matches_theory(self, k, trials):
        cfg = ProtocolConfig(n=8, k=k)
        tally = estimate_acceptance(cfg, trials=trials, seed=300 + k,
                                    adversaries=GuessingPair())
        theory = guessing_rate(8, k)
        assert tally.ci_low <= theory <= tally.ci_high

    def test_failures_are_verification_only(self):
        cfg = ProtocolConfig(n=8, k=1)
        tally = estimate_acceptance(cfg, trials=400, seed=301,
                                    adversaries=GuessingPair())
        assert set(tally.reasons) <= {FailureReason.VER_FAIL}

    def test_attack_meets_every_deadline(self):
        out = run_prpv(ProtocolConfig(), seed=302, adversaries=GuessingPair())
        t = out.verdict.timings
        assert (t["y0"], t["y1"], t["ans0"], t["ans1"]) == (0, 3, 4, 3)
        assert out.verdict.reason in (FailureReason.NONE, FailureReason.VER_FAIL)

    def test_deterministic_per_seed(self):
        cfg = ProtocolConfig(n=6, k=2)
        pair = GuessingPair()
        a = run_prpv(cfg, seed=303, adversaries=pair)
        b = run_prpv(cfg, seed=303, adversaries=pair)
        assert a.verdict == b.verdict


def _assert_replays(run, cfg, pair, seeds):
    compiled = ForwardingPair(pair)
    for seed in seeds:
        plain = run(cfg, seed, adversaries=pair)
        forwarded = run(cfg, seed, adversaries=compiled)
        assert plain.verdict == forwarded.verdict
        assert (plain.verdict.transcript_bytes()
                == forwarded.verdict.transcript_bytes())


class TestForwardingCompiler:
    @pytest.mark.parametrize("make_pair", [GuessingPair, ClassicalForwardPair],
                             ids=["guess", "classical_forward"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_replay_equality(self, make_pair, k):
        pair = make_pair()
        compiled = ForwardingPair(pair)
        assert compiled.klass == "RF"
        assert compiled.name == f"forward_compiled_{pair.name}"
        seeds = [child_seed(400 + k, s) for s in range(30 if k < 8 else 5)]
        _assert_replays(run_prpv, ProtocolConfig(n=6, k=k), pair, seeds)

    @pytest.mark.parametrize("make_pair", [GuessingPair, ClassicalForwardPair],
                             ids=["guess", "classical_forward"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_replay_equality_hashed(self, make_pair, k):
        """Hashed challenges keep the per-seed equality too."""
        seeds = [child_seed(900 + k, s) for s in range(20)]
        _assert_replays(run_roprpv, ProtocolConfig(n=6, k=k), make_pair(), seeds)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_one_replay_per_run(self, k):
        built = []

        class CountingPair(GuessingPair):
            def new_trial(self, env, actor_seed):
                built.append(actor_seed)
                return super().new_trial(env, actor_seed)

        compiled = ForwardingPair(CountingPair())
        for s in range(3):
            built.clear()
            run_prpv(ProtocolConfig(n=6, k=k), child_seed(403, s),
                     adversaries=compiled)
            # the original trial and the one replica replayed in u4
            assert len(built) == 2
            assert built[0] == built[1]

    @pytest.mark.parametrize("k", [1, 4])
    def test_one_obligate_and_solve_per_run(self, k, monkeypatch):
        """The replica runs only u2, so a compiled guess run obligates
        and solves its claw states once, in the original trial's u1."""
        calls = {"obligate": 0, "solve": 0}

        def counting(name, method):
            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(RepeatedPuzzle, name,
                                counting(name, getattr(RepeatedPuzzle, name)))
        run_prpv(ProtocolConfig(n=6, k=k), child_seed(404, k),
                 adversaries=ForwardingPair(GuessingPair()))
        assert calls == {"obligate": 1, "solve": 1}

    @pytest.mark.parametrize("make_pair", [GuessingPair, ClassicalForwardPair],
                             ids=["guess", "classical_forward"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
    def test_right_device_reply_needs_only_seed_and_challenge(
            self, make_pair, k, hashed):
        """The device separation the compiler's one replay rests on: a
        trial's u2 reply, for every challenge the right device can hear,
        is the same whether or not its u1 ran first."""
        pair = make_pair()
        puz = RepeatedPuzzle(6, k)
        heard = [format(c, f"0{k}b") for c in range(2 ** k)]
        if hashed:
            heard.append(None)  # u2 under hashing: nonce0 is still in flight
        for s in range(20):
            seed = child_seed(405 + k, s)
            handle, trapdoor = puz.keygen(Rng(seed))
            oracle = RandomOracle(child_seed(seed, 3), 16, k) if hashed else None
            env = TrialEnv(puz, handle, trapdoor, oracle)
            for challenge in heard:
                original = pair.new_trial(env, seed)
                original.u1()
                fresh = pair.new_trial(env, seed)
                assert fresh.u2(challenge) == original.u2(challenge)

    def test_rate_survives_compilation(self):
        cfg = ProtocolConfig(n=8, k=2)
        tally = estimate_acceptance(cfg, trials=1200, seed=401,
                                    adversaries=ForwardingPair(GuessingPair()))
        theory = guessing_rate(8, 2)
        assert tally.ci_low <= theory <= tally.ci_high

    def test_rejects_entangled_pair(self):
        with pytest.raises(ConfigInvalid, match="cannot compile 'teleport'"):
            ForwardingPair(TeleportPair(8, 1))

    def test_rejects_double_compilation(self):
        with pytest.raises(ConfigInvalid,
                           match="cannot compile 'forward_compiled_guess'"):
            ForwardingPair(ForwardingPair(GuessingPair()))

    def test_wide_challenge_rejected_before_running(self):
        cfg = ProtocolConfig(n=4, k=9)
        with pytest.raises(ConfigInvalid,
                           match="challenge width 9 exceeds the compiler cap 8"):
            run_prpv(cfg, seed=402,
                     adversaries=ForwardingPair(GuessingPair()))


class TestTeleportAttack:
    def test_rate_matches_honest_completeness(self):
        cfg = ProtocolConfig(n=8, k=1)
        tally = estimate_acceptance(cfg, trials=1000, seed=500,
                                    adversaries=TeleportPair(8, 1))
        theory = teleport_rate(8, 1)
        assert theory == honest_completeness(8, 1)
        assert tally.ci_low <= theory <= tally.ci_high

    def test_parallel_rate(self):
        cfg = ProtocolConfig(n=6, k=2)
        tally = estimate_acceptance(cfg, trials=600, seed=501,
                                    adversaries=TeleportPair(6, 2))
        assert tally.ci_low <= teleport_rate(6, 2) <= tally.ci_high

    @pytest.mark.parametrize("n, k", [(8, 1), (6, 2), (4, 4)])
    def test_budget_is_exactly_consumed(self, n, k):
        puz = RepeatedPuzzle(n, k)
        handle, trapdoor = puz.keygen(Rng(3))
        env = TrialEnv(puz, handle, trapdoor)
        pair = TeleportPair(n, k)
        trial = pair.new_trial(env, actor_seed=77)
        y_bytes, m = trial.u1()
        assert trial.pairs_used == pair.entanglement_budget == k * (n + 1)
        n_msg = trial.u2("1" * k)
        y1_bytes, ans1 = trial.u3(m, "1" * k)
        ans0 = trial.u4(n_msg, "1" * k)
        assert y_bytes == y1_bytes
        assert ans0 == ans1

    def test_sides_agree_for_either_challenge(self):
        puz = RepeatedPuzzle(6, 1)
        handle, trapdoor = puz.keygen(Rng(4))
        env = TrialEnv(puz, handle, trapdoor)
        for challenge in ("0", "1"):
            trial = TeleportPair(6, 1).new_trial(env, actor_seed=78)
            _, m = trial.u1()
            n_msg = trial.u2(challenge)
            _, ans1 = trial.u3(m, challenge)
            assert trial.u4(n_msg, challenge) == ans1

    def test_mismatched_run_parameters_rejected(self):
        cfg = ProtocolConfig(n=8, k=2)
        with pytest.raises(ConfigInvalid):
            run_prpv(cfg, seed=502, adversaries=TeleportPair(8, 1))

    @pytest.mark.parametrize("k", [1, 2])
    def test_hashed_run_rejected(self, k):
        """Under hashing the right device learns the challenge too late
        to steer its measurements, so the pair has no hashed form."""
        with pytest.raises(ConfigInvalid, match="deadline"):
            run_roprpv(ProtocolConfig(n=6, k=k), seed=503,
                       adversaries=TeleportPair(6, k))


def _imported(path: Path) -> set[str]:
    """Every module path imports, and every module.name it takes from a
    module; a relative import keeps its leading dots."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    return imported


@pytest.mark.parametrize("module", ["protocol.py", "adversary.py"])
def test_protocol_and_attacks_import_nothing_from_qsim(module):
    """The prover and every attack device reach quantum states only
    through RepeatedPuzzle.obligate and solve, so a change to how the
    puzzle samples its claw states covers all of them."""
    imported = _imported(SRC / module)
    assert sorted(m for m in imported if "qsim" in m.split(".")) == []


class TestClassicalForward:
    def test_rate_matches_classical_prover(self):
        cfg = ProtocolConfig(n=8, k=1)
        tally = estimate_acceptance(cfg, trials=2000, seed=600,
                                    adversaries=ClassicalForwardPair())
        theory = classical_prover_rate(8, 1)
        assert tally.ci_low <= theory <= tally.ci_high

    def test_transcript_equals_positioned_prover(self):
        cfg = ProtocolConfig(n=8, k=2)
        pair = ClassicalForwardPair()
        for s in range(30):
            seed = child_seed(601, s)
            near = run_prpv(cfg, seed, prover=ClassicalProver())
            split = run_prpv(cfg, seed, adversaries=pair)
            assert (near.verdict.transcript_bytes()
                    == split.verdict.transcript_bytes())
            assert near.verdict.accept == split.verdict.accept


class TestRegistry:
    def test_names(self):
        assert ATTACK_NAMES == ("guess", "forward_compiled_guess", "teleport",
                                "classical_forward")

    def test_constructs_each(self):
        cfg = ProtocolConfig(n=8, k=1)
        assert isinstance(make_attack("guess", cfg), GuessingPair)
        assert isinstance(make_attack("forward_compiled_guess", cfg),
                          ForwardingPair)
        assert isinstance(make_attack("teleport", cfg), TeleportPair)
        assert isinstance(make_attack("classical_forward", cfg),
                          ClassicalForwardPair)

    def test_metadata(self):
        cfg = ProtocolConfig(n=8, k=2)
        guess = make_attack("guess", cfg)
        assert (guess.klass, guess.entanglement_budget) == ("R0", 0)
        tele = make_attack("teleport", cfg)
        assert (tele.klass, tele.entanglement_budget) == ("RL", 18)
        fwd = make_attack("forward_compiled_guess", cfg)
        assert fwd.klass == "RF"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigInvalid,
                           match="unknown attack 'entangle_everything'"):
            make_attack("entangle_everything", ProtocolConfig())

    @pytest.mark.parametrize("n, k", [(6, 1), (8, 2), (8, 4)])
    def test_rates_are_the_closed_forms(self, n, k):
        expected = {
            "guess": guessing_rate(n, k),
            "forward_compiled_guess": guessing_rate(n, k),
            "teleport": teleport_rate(n, k),
            "classical_forward": classical_prover_rate(n, k),
        }
        cfg = ProtocolConfig(n=n, k=k)
        rates = {name: make_attack(name, cfg).rate(n, k) for name in ATTACK_NAMES}
        assert rates == expected

    @pytest.mark.parametrize("n, k", [(6, 1), (8, 2), (8, 4)])
    def test_compiled_rate_is_the_inner_rate(self, n, k):
        inner = ClassicalForwardPair()
        assert ForwardingPair(inner).rate(n, k) == inner.rate(n, k)


@pytest.mark.parametrize("runner", [run_prpv, run_roprpv],
                         ids=["plain", "hashed"])
@pytest.mark.parametrize("name", ATTACK_NAMES)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_catalog_rate_in_both_variants(runner, name, k):
    """Every attack pair runs to its closed-form rate under both the
    plain and the hashed challenge, or is rejected with a typed error:
    teleport under hashing, whose outcomes would miss ans0's deadline."""
    cfg = ProtocolConfig(n=6, k=k)
    pair = make_attack(name, cfg)
    estimate = partial(estimate_acceptance, cfg, trials=400, seed=1000 + k,
                       runner=runner, adversaries=pair)
    if runner is run_roprpv and name == "teleport":
        with pytest.raises(ConfigInvalid):
            estimate()
        return
    tally = estimate()
    assert tally.ci_low <= pair.rate(6, k) <= tally.ci_high, (
        f"CI [{tally.ci_low:.4f}, {tally.ci_high:.4f}] misses {pair.rate(6, k):.4f}")
