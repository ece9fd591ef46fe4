"""Discrete-event simulator on a 1D line with exact rational time.

Positions and times are fractions.Fraction values; all deadline comparisons
are exact, never float. Messages propagate at speed 1: a message emitted at
time t from position x reaches a party at position p at exactly t + |p - x|.
Handlers run instantaneously (zero local computation time).

Determinism: events are processed in (time, sequence) order, where sequence
numbers increase in creation order and broadcast deliveries are created in
party-registration order. Two runs with the same behaviors produce
byte-identical traces.
"""

import hashlib
import heapq
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import SimulationStarted

Coordinate = Fraction


def as_coord(value) -> Fraction:
    """Exact coordinate from an int, Fraction, or 'num/den' string."""
    if isinstance(value, float):
        raise TypeError(f"refusing float coordinate {value!r}; pass Fraction or 'num/den'")
    return Fraction(value)


def coord_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Emission:
    """What a handler hands back to the simulator for sending.

    target=None means broadcast; a PartyId delivers to that party alone.
    """

    payload: bytes
    target: int | None = None


@dataclass(frozen=True)
class SpacetimeMessage:
    payload: bytes
    sender: int
    emit_time: Fraction


@dataclass(frozen=True)
class TraceEvent:
    time: Fraction
    kind: str  # "alarm" | "emit" | "recv"
    party: int
    digest: str
    payload: bytes


class Trace:
    def __init__(self, events: list[TraceEvent]):
        self.events = events

    def received(self, party: int) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "recv" and e.party == party]

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "time": coord_str(e.time),
                    "kind": e.kind,
                    "party": e.party,
                    "digest": e.digest,
                },
                sort_keys=True,
            )
            for e in self.events
        ]
        return "\n".join(lines) + "\n"


def assert_deadline(trace: Trace, party: int, predicate) -> bool:
    """True iff some message received by the party satisfies the predicate.

    The predicate gets (payload, time) with time an exact Fraction, so
    strict and nonstrict window checks are exact rational comparisons.
    """
    return any(predicate(e.payload, e.time) for e in trace.received(party))


class PartyBehavior:
    """Base behavior: override handlers; each returns an Emission iterable."""

    def alarms(self):
        return ()

    def on_alarm(self, time: Fraction):
        return ()

    def on_receive(self, time: Fraction, message: SpacetimeMessage):
        return ()


_DIGEST_LEN = 16


def payload_digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_LEN]


class Simulation:
    def __init__(self, record_trace: bool = True):
        self._positions: list[Fraction] = []
        self._behaviors: list[PartyBehavior] = []
        self._events: list = []  # heap of (time, seq, kind, data)
        self._seq = 0
        self._started = False
        self._record = record_trace
        self._trace: list[TraceEvent] = []

    def add_party(self, position, behavior: PartyBehavior) -> int:
        if self._started:
            raise SimulationStarted("cannot add a party after run() began")
        pid = len(self._positions)
        self._positions.append(as_coord(position))
        self._behaviors.append(behavior)
        for t in behavior.alarms():
            t = as_coord(t)
            if t < 0:
                raise ValueError(f"alarm at negative time {t}")
            self._push(t, "alarm", pid)
        return pid

    def _push(self, time: Fraction, kind: str, data):
        heapq.heappush(self._events, (time, self._seq, kind, data))
        self._seq += 1

    def _note(self, time: Fraction, kind: str, party: int, payload: bytes):
        if self._record:
            self._trace.append(
                TraceEvent(time, kind, party, payload_digest(payload), payload)
            )

    def _emit(self, sender: int, time: Fraction, emission: Emission):
        msg = SpacetimeMessage(payload=emission.payload, sender=sender,
                               emit_time=time)
        self._note(time, "emit", sender, msg.payload)
        if emission.target is not None:
            recipients = (emission.target,)
        else:
            recipients = range(len(self._positions))
        origin = self._positions[sender]
        for pid in recipients:
            arrival = time + abs(self._positions[pid] - origin)
            self._push(arrival, "recv", (pid, msg))

    def run(self, until) -> Trace:
        """Process all events with time <= until in (time, seq) order."""
        until = as_coord(until)
        if until < 0:
            raise ValueError(f"until must be nonnegative, got {until}")
        if self._started:
            raise SimulationStarted("run() may only be called once")
        self._started = True
        while self._events and self._events[0][0] <= until:
            time, _, kind, data = heapq.heappop(self._events)
            if kind == "alarm":
                pid = data
                self._note(time, "alarm", pid, b"")
                out = self._behaviors[pid].on_alarm(time)
            else:
                pid, msg = data
                self._note(time, "recv", pid, msg.payload)
                out = self._behaviors[pid].on_receive(time, msg)
            for emission in out:
                self._emit(pid, time, emission)
        return Trace(self._trace)
