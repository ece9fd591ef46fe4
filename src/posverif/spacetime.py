"""Discrete-event simulator on a 1D line with exact rational time.

Positions and times are fractions.Fraction values; all deadline comparisons
are exact, never float. Messages propagate at speed 1: a message emitted at
time t from position x reaches a party at position p at exactly t + |p - x|.
Handlers run instantaneously (zero local computation time).

run() keeps times as integer ticks of 1/scale, scale being the LCM of the
denominators of every position, alarm and `until`. Each event time is an
alarm plus position differences, a whole number of ticks, so integer order
and sums are exact. Handlers, messages and the trace get exact Fractions:
each distinct (tick, scale) time is one Fraction, built once and shared
across runs through a bounded cache. Trace events are built only while a
trace is being recorded.

Determinism: events are processed in (time, sequence) order, where sequence
numbers increase in creation order and broadcast deliveries are created in
party-registration order. Two runs with the same behaviors produce
byte-identical traces.
"""

import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ConfigInvalid, SimulationStarted


def as_coord(value) -> Fraction:
    """Exact coordinate from an int, Fraction, or 'num/den' string. A
    float or bool raises TypeError; a string that is no exact rational
    ('abc', '1/0') raises ConfigInvalid."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} coordinate {value!r}; "
                        "pass int, Fraction or 'num/den'")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"coordinate {value!r} is not an exact rational") from exc


def coord_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class Emission(NamedTuple):
    """What a handler hands back to the simulator for sending.

    target=None means broadcast; a PartyId delivers to that party alone.
    """

    payload: bytes
    target: int | None = None


class SpacetimeMessage(NamedTuple):
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


@lru_cache(maxsize=1024)
def _event_time(tick: int, scale: int) -> Fraction:
    """The exact time of tick at scale ticks per unit; a run visits a
    few distinct times, and runs at one geometry visit the same ones."""
    return Fraction(tick, scale)


class Simulation:
    def __init__(self, record_trace: bool = True):
        # Fractions until run() turns them into ticks; an event is
        # (time, seq, pid, message), with message None for an alarm
        self._positions: list = []
        self._behaviors: list[PartyBehavior] = []
        self._events: list = []
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
                raise ConfigInvalid(f"alarm at negative time {t}")
            self._events.append((t, self._seq, pid, None))
            self._seq += 1
        return pid

    def _note(self, time: Fraction, kind: str, party: int, payload: bytes):
        self._trace.append(
            TraceEvent(time, kind, party, payload_digest(payload), payload))

    def _emit(self, sender: int, tick: int, time: Fraction, emission: Emission):
        payload, target = emission
        msg = SpacetimeMessage(payload, sender, time)
        if self._record:
            self._note(time, "emit", sender, payload)
        if target is not None:
            recipients = (target,)
        else:
            recipients = range(len(self._positions))
        origin = self._positions[sender]
        for pid in recipients:
            arrival = tick + abs(self._positions[pid] - origin)
            heapq.heappush(self._events, (arrival, self._seq, pid, msg))
            self._seq += 1

    def run(self, until) -> Trace:
        """Process all events with time <= until in (time, seq) order."""
        until = as_coord(until)
        if until < 0:
            raise ConfigInvalid(f"until must be nonnegative, got {until}")
        if self._started:
            raise SimulationStarted("run() may only be called once")
        self._started = True
        scale = math.lcm(until.denominator,
                         *(x.denominator for x in self._positions),
                         *(e[0].denominator for e in self._events))

        def ticks(x: Fraction) -> int:
            return x.numerator * (scale // x.denominator)

        self._positions = [ticks(x) for x in self._positions]
        self._events = events = [(ticks(t), seq, pid, None)
                                 for t, seq, pid, _ in self._events]
        heapq.heapify(events)
        limit = ticks(until)
        record = self._record
        while events and events[0][0] <= limit:
            tick, _, pid, msg = heapq.heappop(events)
            time = _event_time(tick, scale)
            if msg is None:
                if record:
                    self._note(time, "alarm", pid, b"")
                out = self._behaviors[pid].on_alarm(time)
            else:
                if record:
                    self._note(time, "recv", pid, msg.payload)
                out = self._behaviors[pid].on_receive(time, msg)
            for emission in out:
                self._emit(pid, tick, time, emission)
        return Trace(self._trace)
