"""Per-layer tracing from outside the program: wrappers around layer entry points.

:class:`Tracer` wraps the monitor's public entry points (``start``,
``local_event``, ``local_termination``, ``receive_message``), the transports'
``send`` and ``TokenEntry.record_scan`` while it is entered, and restores the
originals on exit.  Only the outermost monitor call is timed, and the time
its nested ``send`` calls take is moved to the transport, so the monitor's
self time never counts anything twice.  :class:`CodecProbe` encodes every
message at the moment it is sent with the cluster wire codec, in a pass of
its own, because encoding costs more than the run it measures.

Both patch the classes of the *current* import of ``repro`` (see
:mod:`perfbench.system`), so nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: monitor entry point -> layer its outermost calls are charged to
MONITOR_LAYERS = {
    "start": "control",
    "local_event": "event",
    "local_termination": "control",
    "receive_message": None,  # token or control, by message type
}


class _Patcher:
    """Swaps class attributes for wrappers while entered."""

    def __init__(self) -> None:
        self._originals: list[tuple[type, str, object]] = []

    def _patch(self, owner: type, name: str, make_wrapper) -> None:
        original = owner.__dict__[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def install(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


def _transports():
    """The send methods of both backends' transports."""
    return (
        importlib.import_module("repro.sim.network").SimulatedNetwork,
        importlib.import_module("repro.runtime.transport").StreamTransport,
    )


class Tracer(_Patcher):
    """Self time and call counts of the monitor layer, sends and scans."""

    def __init__(self) -> None:
        super().__init__()
        #: layer -> self seconds (``token``, ``event``, ``control``, ``send``)
        self.seconds: dict[str, float] = defaultdict(float)
        #: layer -> outermost calls, plus ``send``, ``scan`` and ``token_hop``
        self.calls: dict[str, int] = defaultdict(int)
        #: MonitorMetrics of every monitor built while the tracer was entered
        self.monitor_metrics: list = []
        self._inside = False
        self._child = 0.0

    def install(self) -> None:
        monitor_class = importlib.import_module("repro.core.monitor").DecentralizedMonitor
        messages = importlib.import_module("repro.core.messages")
        for name, layer in MONITOR_LAYERS.items():
            self._patch(monitor_class, name, self._span(layer, messages.Token))
        self._patch(monitor_class, "__init__", self._capture_metrics)
        self._patch(messages.TokenEntry, "record_scan", self._count_scans)
        for transport in _transports():
            self._patch(transport, "send", self._time_send)

    def _span(self, layer: str | None, token_class: type):
        tracer = self
        seconds, calls = self.seconds, self.calls

        def make_wrapper(original):
            def wrapper(monitor, *args):
                if tracer._inside:
                    return original(monitor, *args)
                charged = layer
                if charged is None:
                    is_token = isinstance(args[0], token_class)
                    charged = "token" if is_token else "control"
                    if is_token:
                        calls["token_hop"] += 1
                tracer._inside = True
                tracer._child = 0.0
                started = time.perf_counter()
                try:
                    return original(monitor, *args)
                finally:
                    elapsed = time.perf_counter() - started
                    tracer._inside = False
                    seconds[charged] += elapsed - tracer._child
                    seconds["send"] += tracer._child
                    calls[charged] += 1

            return wrapper

        return make_wrapper

    def _capture_metrics(self, original):
        captured = self.monitor_metrics

        def wrapper(monitor, *args, **kwargs):
            original(monitor, *args, **kwargs)
            captured.append(monitor.metrics)

        return wrapper

    def _count_scans(self, original):
        calls = self.calls

        def wrapper(*args):
            calls["scan"] += 1
            return original(*args)

        return wrapper

    def _time_send(self, original):
        tracer = self
        calls = self.calls

        def wrapper(transport, sender, target, message):
            started = time.perf_counter()
            try:
                return original(transport, sender, target, message)
            finally:
                tracer._child += time.perf_counter() - started
                calls["send"] += 1

        return wrapper

    def monitor_seconds(self) -> float:
        """Self time of the monitor layer (token + event + control)."""
        return self.seconds["token"] + self.seconds["event"] + self.seconds["control"]


class CodecProbe(_Patcher):
    """Wire size of every message sent, encoded when it is sent."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def install(self) -> None:
        encode_wire = importlib.import_module("repro.cluster.codec").encode_wire
        sizes = self.sizes

        def make_wrapper(original):
            def wrapper(transport, sender, target, message):
                sizes.append(len(encode_wire(0.0, message)))
                return original(transport, sender, target, message)

            return wrapper

        for transport in _transports():
            self._patch(transport, "send", make_wrapper)
