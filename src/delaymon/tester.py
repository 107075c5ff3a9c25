"""Active testing over two delayed channels.

The tester sends inputs to the system under test through a channel with
latency ``δ_I ∈ [ℓ_I, u_I]`` plus per-event jitter in ``[0, ε_I]``, and
receives outputs through an independent channel with latency
``δ_O ∈ [ℓ_O, u_O]`` plus jitter in ``[0, ε_O]``.  Input timestamps are
taken when the tester emits the stimulus; output timestamps when the
response arrives.  Specifications must carry an input/output partition and
are restricted to strictly alternating input/output words by their
:attr:`~delaymon.automata.TBA.io_product`, built once per automaton object
by renaming its compiled edges, with no edge checked or compiled again.

The engine is the core of :mod:`delaymon.monitor` with two channels, used
alternately: for an automaton with ``n`` clocks, the input channel's clock
``n + 2`` (ground-truth time minus the input latency; starts negative) and
the output channel's clock ``n + 3`` (ground-truth time plus the output
latency).  The round-trip latency is their difference, the measure
:data:`ROUND_TRIP`; the two channel ranges already bound it to the summed
range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .automata import TBA
from .dbm import Interval
from .monitor import (
    INPUT,
    OUTPUT,
    DelayBounds,
    Measure,
    MonitorError,
    Verdict,
    _Engine,
)

# The output channel's clock minus the input channel's, as offsets from time
ROUND_TRIP: Measure = (2, 1)


class AlternationError(MonitorError):
    """Observations must alternate input/output, starting with an input."""


class GapError(MonitorError):
    """An output was observed too soon after the preceding input: the gap
    must be at least the sum of the minimal channel latencies."""


@dataclass(frozen=True)
class IODelayBounds:
    """Channel model for both directions."""

    input: DelayBounds
    output: DelayBounds

    @property
    def combined_low(self) -> int:
        return self.input.latency_low + self.output.latency_low


class IOLatencyReport(NamedTuple):
    """Consistent-latency intervals per polarity: input channel, output
    channel, and the round-trip sum."""

    positive_input: tuple[Interval, ...]
    positive_output: tuple[Interval, ...]
    positive_combined: tuple[Interval, ...]
    negative_input: tuple[Interval, ...]
    negative_output: tuple[Interval, ...]
    negative_combined: tuple[Interval, ...]
    input_jitter: int
    output_jitter: int


class Tester(_Engine):
    """Drive one test run; mutate via :meth:`observe_io` only."""

    _report_type = IOLatencyReport

    def __init__(self, spec: TBA, complement: TBA, bounds: IODelayBounds):
        if not spec.has_io_partition or not complement.has_io_partition:
            raise MonitorError(
                "testing requires an input/output partition on both automata")
        if (spec.inputs, spec.outputs) != (complement.inputs,
                                           complement.outputs):
            raise MonitorError(
                "property and complement automata disagree on the "
                "input/output partition")
        self.bounds = bounds
        self.inputs = spec.inputs
        self._start(
            spec.io_product, complement.io_product,
            ((bounds.input, INPUT), (bounds.output, OUTPUT)), (ROUND_TRIP,))

    @property
    def awaiting_input(self) -> bool:
        return self.observation_count % 2 == 0

    def latency_report(self) -> IOLatencyReport:
        return self._report_once()

    def observe_io(self, symbol: str, tau: int) -> Verdict:
        self._check(symbol, tau)
        is_input = symbol in self.inputs
        if is_input is not self.awaiting_input:
            expected = "an input" if self.awaiting_input else "an output"
            raise AlternationError(
                f"observation {self.observation_count + 1} ({symbol!r}) "
                f"must be {expected}")
        if not is_input:
            gap = self.bounds.combined_low
            if tau - self.last_obs_time < gap:
                raise GapError(
                    "output observed {} after the input; the channels need "
                    "at least {}", tau - self.last_obs_time, gap)
        return self._record(symbol, tau)
