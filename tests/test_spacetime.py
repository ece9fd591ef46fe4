"""Timing-simulator tests: exact arithmetic, ordering."""

from fractions import Fraction

import pytest

from posverif.errors import SimulationStarted
from posverif.spacetime import (
    Emission,
    PartyBehavior,
    Simulation,
    Trace,
    as_coord,
    coord_str,
)


def received(trace, party):
    return [e for e in trace.events if e.kind == "recv" and e.party == party]


class Recorder(PartyBehavior):
    def __init__(self):
        self.got = []

    def on_receive(self, time, message):
        self.got.append((time, message.payload, message.sender))
        return ()


class SendOnce(PartyBehavior):
    def __init__(self, when, payload, target=None):
        self.when = as_coord(when)
        self.payload = payload
        self.target = target

    def alarms(self):
        return (self.when,)

    def on_alarm(self, time):
        return (Emission(self.payload, self.target),)


class Echo(PartyBehavior):
    """Replies to every received payload with a tagged copy."""

    def __init__(self):
        self.got = []

    def on_receive(self, time, message):
        self.got.append((time, message.payload))
        if not message.payload.startswith(b"echo:"):
            return (Emission(b"echo:" + message.payload),)
        return ()


class TestDelivery:
    def test_speed_one_arrival(self):
        sim = Simulation()
        sim.add_party(0, SendOnce(0, b"hello"))
        rec = Recorder()
        sim.add_party(Fraction(3, 2), rec)
        sim.run(10)
        assert rec.got == [(Fraction(3, 2), b"hello", 0)]

    def test_broadcast_reaches_everyone_including_sender(self):
        sim = Simulation()
        recs = [Recorder() for _ in range(3)]
        sender = SendOnce(1, b"x")
        sim.add_party(2, sender)
        for pos, r in zip((0, 2, 5), recs):
            sim.add_party(pos, r)
        sim.run(10)
        assert recs[0].got == [(Fraction(3), b"x", 0)]
        assert recs[1].got == [(Fraction(1), b"x", 0)]  # distance 0
        assert recs[2].got == [(Fraction(4), b"x", 0)]

    def test_directed_delivery_only_target(self):
        sim = Simulation()
        sim.add_party(0, SendOnce(0, b"d", target=2))
        bystander, target = Recorder(), Recorder()
        sim.add_party(1, bystander)
        sim.add_party(3, target)
        sim.run(10)
        assert bystander.got == []
        assert target.got == [(Fraction(3), b"d", 0)]

    def test_exact_rational_positions(self):
        sim = Simulation()
        sim.add_party(Fraction(199, 100), SendOnce(Fraction(1, 3), b"r"))
        rec = Recorder()
        sim.add_party(Fraction(1, 7), rec)
        sim.run(10)
        expect = Fraction(1, 3) + (Fraction(199, 100) - Fraction(1, 7))
        assert rec.got[0][0] == expect  # exact, no float anywhere

    def test_float_positions_rejected(self):
        sim = Simulation()
        with pytest.raises(TypeError):
            sim.add_party(1.5, Recorder())

    def test_until_cutoff(self):
        sim = Simulation()
        sim.add_party(0, SendOnce(0, b"x"))
        rec = Recorder()
        sim.add_party(5, rec)
        sim.run(4)
        assert rec.got == []  # arrival at 5 > until


class TestOrdering:
    def test_ties_broken_by_creation_order(self):
        sim = Simulation()
        rec = Recorder()
        sim.add_party(0, SendOnce(1, b"a"))
        sim.add_party(0, SendOnce(1, b"b"))
        sim.add_party(0, rec)
        sim.run(2)
        assert [p for _, p, _ in rec.got] == [b"a", b"b"]

    def test_causal_chain(self):
        """A reply to a message is emitted at the arrival time and lands
        after the corresponding distance, exactly."""
        sim = Simulation()
        rec = Recorder()
        sim.add_party(0, SendOnce(0, b"ping", target=1))
        echo = Echo()
        sim.add_party(Fraction(5, 2), echo)
        sim.add_party(1, rec)
        sim.run(10)
        # the broadcast reply also reaches the echo party itself at distance 0
        assert echo.got == [
            (Fraction(5, 2), b"ping"),
            (Fraction(5, 2), b"echo:ping"),
        ]
        assert rec.got == [(Fraction(5, 2) + Fraction(3, 2), b"echo:ping", 1)]

    def test_causality_in_trace(self):
        sim = Simulation()
        sim.add_party(0, SendOnce(0, b"z"))
        sim.add_party(7, Recorder())
        trace = sim.run(20)
        emits = [e for e in trace.events if e.kind == "emit"]
        recvs = [e for e in trace.events if e.kind == "recv"]
        assert emits[0].time <= min(r.time for r in recvs)


class Chatter(PartyBehavior):
    """Broadcasts its payload at each alarm time, handed to the simulator
    unconverted, and broadcasts one reply to every other party's original
    payload; logs (time, message) received."""

    def __init__(self, payload, *alarm_times):
        self.payload = payload
        self.alarm_times = alarm_times
        self.got = []

    def alarms(self):
        return self.alarm_times

    def on_alarm(self, time):
        return (Emission(self.payload),)

    def on_receive(self, time, message):
        self.got.append((time, message))
        if message.payload.startswith(b"re:") or message.payload == self.payload:
            return ()
        return (Emission(b"re:" + self.payload + message.payload),)


class TestTicks:
    """run() schedules on integer ticks of 1/lcm(denominators); handlers,
    messages and the trace must still see exact Fractions in exact order."""

    POSITIONS = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11),
                 Fraction(199, 100))
    ALARMS = ((Fraction(2, 7),), (Fraction(5, 11), Fraction(1, 3)),
              (Fraction(199, 100),), (Fraction(1, 3),))

    def test_coprime_denominators_exact(self):
        sim = Simulation()
        parties = [Chatter(bytes([65 + i]), *alarms)
                   for i, alarms in enumerate(self.ALARMS)]
        for pos, party in zip(self.POSITIONS, parties):
            sim.add_party(pos, party)
        trace = sim.run(20)

        for pid, party in enumerate(parties):
            assert party.got
            for time, msg in party.got:
                assert type(time) is Fraction
                assert type(msg.emit_time) is Fraction
                assert time == msg.emit_time + abs(
                    self.POSITIONS[pid] - self.POSITIONS[msg.sender])

        # Reference order: alarms take seqs in registration order, then
        # every emit (in trace order) queues one recv per party in pid
        # order; the simulator must process (Fraction time, seq) ascending.
        expected = []
        for pid, alarms in enumerate(self.ALARMS):
            for t in alarms:
                expected.append((t, len(expected), "alarm", pid))
        seq = len(expected)
        for e in trace.events:
            if e.kind == "emit":
                for pid, pos in enumerate(self.POSITIONS):
                    arrival = e.time + abs(pos - self.POSITIONS[e.party])
                    expected.append((arrival, seq, "recv", pid))
                    seq += 1
        expected.sort()
        processed = [(e.time, e.kind, e.party)
                     for e in trace.events if e.kind != "emit"]
        assert processed == [(t, kind, pid) for t, _, kind, pid in expected]
        assert all(type(e.time) is Fraction for e in trace.events)

    @pytest.mark.parametrize("until", [Fraction(5, 6),
                                       Fraction(5, 6) + Fraction(1, 2000)])
    def test_until_denominator_outside_positions_and_alarms(self, until):
        # arrivals 1/2 + 1/3 = until and 1/1000 later; the denominators of
        # until (6 or 6000) divide none of 2, 3 and 1000
        sim = Simulation()
        sim.add_party(0, SendOnce(Fraction(1, 2), b"on-time", target=2))
        sim.add_party(0, SendOnce(Fraction(501, 1000), b"late", target=2))
        rec = Recorder()
        sim.add_party(Fraction(1, 3), rec)
        sim.run(until)
        assert rec.got == [(Fraction(5, 6), b"on-time", 0)]

    @pytest.mark.parametrize("bad, error", [(Fraction(-1, 3), ValueError),
                                            (-1, ValueError),
                                            (0.5, TypeError)])
    def test_bad_alarm_raises_at_add_party(self, bad, error):
        sim = Simulation()
        with pytest.raises(error):
            sim.add_party(0, Chatter(b"x", Fraction(1, 3), bad))


class TestLifecycle:
    def test_add_party_after_run(self):
        sim = Simulation()
        sim.add_party(0, Recorder())
        sim.run(1)
        with pytest.raises(SimulationStarted):
            sim.add_party(1, Recorder())

    def test_run_twice(self):
        sim = Simulation()
        sim.add_party(0, Recorder())
        sim.run(1)
        with pytest.raises(SimulationStarted):
            sim.run(2)

    def test_negative_until(self):
        sim = Simulation()
        with pytest.raises(ValueError):
            sim.run(-1)


def build_and_run():
    sim = Simulation()
    sim.add_party(0, SendOnce(0, b"one"))
    sim.add_party(3, SendOnce(1, b"two", target=2))
    sim.add_party(Fraction(3, 2), Echo())
    return sim.run(12)


class TestTrace:
    def test_deterministic_export(self):
        a = build_and_run().to_json_lines()
        b = build_and_run().to_json_lines()
        assert a == b
        assert '"time": "3/2"' in a

    def test_trace_schema(self):
        import json

        for line in build_and_run().to_json_lines().splitlines():
            entry = json.loads(line)
            assert set(entry) == {"time", "kind", "party", "digest"}
            num, den = entry["time"].split("/")
            assert int(den) > 0 and int(num) >= 0
            assert entry["kind"] in ("alarm", "emit", "recv")

    def test_received_filter(self):
        trace = build_and_run()
        assert all(e.kind == "recv" for e in received(trace, 2))

    def test_assert_deadline_exact(self):
        """Strict windows distinguish t=4 from t=4+1/1000 exactly."""
        sim = Simulation()
        sim.add_party(0, SendOnce(Fraction(4, 1), b"on-time", target=1))
        sim.add_party(0, SendOnce(Fraction(4001, 1000), b"late", target=1))
        sim.add_party(0, Recorder())
        trace = sim.run(10)
        is_at_4 = lambda p, t: t == Fraction(4)
        before_4 = lambda p, t: t < Fraction(4)
        got = [(e.payload, e.time) for e in received(trace, 1)]
        assert any(is_at_4(p, t) for p, t in got)
        assert not any(before_4(p, t) for p, t in got)
        assert not any(p == b"late" and t <= Fraction(4) for p, t in got)

    def test_coord_str(self):
        assert coord_str(Fraction(4)) == "4/1"
        assert coord_str(Fraction(199, 100)) == "199/100"

    def test_recording_can_be_disabled(self):
        sim = Simulation(record_trace=False)
        sim.add_party(0, SendOnce(0, b"x"))
        rec = Recorder()
        sim.add_party(1, rec)
        trace = sim.run(5)
        assert trace.events == [] and rec.got != []
