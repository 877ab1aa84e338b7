"""Layer tracing for the traced run, done from the benchmark's own files.

The program is not edited: :meth:`Tracer.install` replaces the public
methods listed in :data:`LAYERS` on their classes with wrappers that
record a span per call and :meth:`Tracer.uninstall` puts the originals
back.  A span holds its layer, its parent, and its start and end on two
clocks: process CPU time (``time.process_time_ns``) and the virtual
clock of the deployment under test.  Wrappers only read the virtual
clock, never charge it, so a traced run's modelled times equal an
untraced run's exactly.

Requests.  The harness opens each op's root span with :meth:`Tracer.request`
around its one timed call, and hands it the op's record.  The team-share
driver calls the program's switchless dispatch itself, with the harness
thunk inside it, so there a top-level ``SwitchlessQueue.dispatch`` is
the root and :meth:`Tracer.request` only binds the record to it.  Calls
into wrapped methods made outside any request (setup, ``quiesce``
between phases) record no span.

Self time.  A span's self time is its duration minus the durations of
its direct children.  On the CPU clock every span of a request nests in
one single-threaded timeline.  On the virtual clock a child can run on
another timeline than its parent: a group-commit epoch close runs on a
background track, and a cluster quiesce charges the base timeline while
the front door routes the request.  Such a *detached* subtree does not
cover any part of the parent's interval, so it is not subtracted from
the parent and its modelled time is reported apart
(``trace.detached_model_s``); it is real work, but not on the request's
latency path.  One cross-timeline child does lie on that path: a routed
request's front-door leg, ``[arrival, completion]`` on the replica's
track.  Its request's root then measures that leg plus what the request
does on the base timeline after the front door returned (draining and
decrypting a GET's stream).

Residual.  Harness code inside a request (a root opened by
:meth:`Tracer.request`, checking a digest in a driver thunk) belongs to
no layer; its self time is the explicit residual, so per request
``root == sum(layer self times) + residual`` on both clocks, by the
definition of self time.

Roots.  What makes the ledger a measurement of the ops is that each
root is the op's latency: :meth:`Tracer.root_errors` requires every
request's root to span exactly the modelled latency the harness
recorded for its op, and at least its timed CPU.
"""

from __future__ import annotations

import contextlib
import time
import types
from collections import defaultdict
from typing import Any, Callable, Iterator

from repro.cluster.placement import PlacementRing
from repro.cluster.router import SeGShareCluster
from repro.core.authz.enclave_acl import EnclaveAclBackend
from repro.core.cache import MetadataCache
from repro.core.client import SeGShareClient
from repro.core.coherence import CoherenceManager
from repro.core.file_manager import ContentUpload, TrustedFileManager
from repro.core.journal import WriteAheadJournal
from repro.core.locks import LockManager
from repro.core.request_handler import RequestHandler
from repro.core.rollback import FlatStoreGuard, RollbackGuard
from repro.crypto.pae import HmacStreamPae
from repro.netsim import Link, ParallelClock
from repro.sgx.counters import RoteCounterService
from repro.sgx.enclave import EnclaveHandle
from repro.sgx.protected_fs import ProtectedFs, ReadHandle, WriteHandle
from repro.sgx.switchless import SwitchlessQueue
from repro.storage.backends import InMemoryStore
from repro.store.engine import StorageEngine
from repro.tls.channel import TrustedTlsInterface
from repro.tls.session import TlsSession

#: Layer name -> the (class, methods) whose calls are that layer's spans.
#: Layers are named after the modules that implement them.
LAYERS: dict[str, list[tuple[type, tuple[str, ...]]]] = {
    "client": [
        (SeGShareClient, ("upload", "download", "add_user", "remove_user", "set_permission")),
    ],
    "tls": [
        (TlsSession, ("protect", "unprotect")),
        (TrustedTlsInterface, ("on_record",)),
    ],
    "netsim": [(Link, ("transfer_up", "transfer_down", "stream_up", "stream_down"))],
    "sgx": [(EnclaveHandle, ("call",)), (SwitchlessQueue, ("dispatch",))],
    "request_handler": [(RequestHandler, ("handle", "put_file", "get"))],
    "authz": [(EnclaveAclBackend, ("auth_f", "auth_g", "add_member", "remove_member"))],
    "locks": [(LockManager, ("acquire",))],
    "file_manager": [
        (
            TrustedFileManager,
            ("read_content", "write_content", "iter_content", "open_content_upload",
             "read_dir", "write_dir"),
        ),
        (ContentUpload, ("write", "finish")),
    ],
    "pae": [(HmacStreamPae, ("encrypt_with_iv", "decrypt"))],
    "protected_fs": [
        (ProtectedFs, ("read_file", "write_file", "open_read", "open_write")),
        (ReadHandle, ("read_chunk",)),
        (WriteHandle, ("write", "close")),
    ],
    "cache": [(MetadataCache, ("get", "put"))],
    "rollback": [
        (RollbackGuard, ("verify_read", "on_write", "commit_batch")),
        (FlatStoreGuard, ("verify_read", "on_write", "commit_batch")),
    ],
    "engine": [(StorageEngine, ("transaction",))],
    "journal": [(WriteAheadJournal, ("record", "commit", "commit_member", "close_epoch"))],
    "counters": [(RoteCounterService, ("read", "increment"))],
    "store": [(InMemoryStore, ("get", "put", "delete", "scan"))],
    "cluster": [(SeGShareCluster, ("handle", "put_file")), (PlacementRing, ("owner",))],
    "coherence": [(CoherenceManager, ("sync", "publish"))],
}

#: Methods whose top-level call starts a request.
ENTRIES = {(SwitchlessQueue, "dispatch")}

#: Layers in report order.
LAYER_NAMES = tuple(LAYERS)

#: How many requests' raw spans are kept for :meth:`Tracer.chrome_trace`.
KEEP_REQUESTS = 200

# Span record fields (a list per span keeps the traced run light).
# ``_JOINED`` marks a span on another timeline that is still on its
# parent's latency path (a routed request's front-door leg).
_SID, _PARENT, _LAYER, _NAME, _C0, _C1, _M0, _M1, _TL, _KIND, _JOINED = range(11)


class Tracer:
    """Records spans of requests and folds them into a per-layer ledger.

    Every request is folded into the ledger when its root closes, so
    memory stays flat over a long run; the raw spans of the first
    :data:`KEEP_REQUESTS` are kept for :meth:`chrome_trace`.
    """

    def __init__(self) -> None:
        self.clock: Any = None
        self.enabled = False
        self.kept: list[list[list[Any]]] = []
        self._stack: list[list[Any]] = []
        self._spans: list[list[Any]] = []
        self._next_sid = 0
        self._last_track: Any = None
        self._last_routed: list[Any] | None = None
        #: Base clock when the last routed call returned.
        self._routed_return = 0.0
        #: The harness's record of the op whose root is open.
        self._record: Any = None
        self._patched: list[tuple[type, str, Any]] = []
        # Ledger, accumulated per request.
        self.requests = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.cpu_self_ns: dict[str, int] = defaultdict(int)
        self.model_self_s: dict[str, float] = defaultdict(float)
        self.residual_cpu_ns = 0
        self.residual_model_s = 0.0
        self.detached_model_s = 0.0
        self.root_cpu_ns = 0
        self.root_model_s = 0.0
        #: (root CPU ns, root model s, the op's record) per request.
        self.roots: list[tuple[int, float, Any]] = []
        #: Calls per ``layer.method`` and byte counts taken from wrapped
        #: calls' arguments and results, over the whole traced phase
        #: (inside requests or not).
        self.counts: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)

    # -- clocks ---------------------------------------------------------------

    def _model(self) -> tuple[float, Any]:
        clock = self.clock
        if isinstance(clock, ParallelClock):
            return clock.now(), clock.active_track()
        return clock.now(), None

    # -- spans ----------------------------------------------------------------

    def _open(self, layer: str | None, name: str, entry: bool, kind: str) -> list[Any] | None:
        if not self.enabled or (not self._stack and not entry):
            return None
        now, track = self._model()
        parent = self._stack[-1][_SID] if self._stack else -1
        span = [self._next_sid, parent, layer, name, 0, 0, now, now, track, kind, False]
        self._next_sid += 1
        self._stack.append(span)
        self._spans.append(span)
        span[_C0] = time.process_time_ns()
        return span

    def _close(self, span: list[Any], fixup: Callable[[list[Any]], None] | None = None) -> None:
        span[_C1] = time.process_time_ns()
        span[_M1] = self._model()[0]
        if fixup is not None:
            fixup(span)
        if self._stack.pop() is not span:
            raise RuntimeError("spans must close innermost first")
        if not self._stack:
            self._fold(self._spans)
            self._spans = []

    @contextlib.contextmanager
    def request(self, record: Any) -> Iterator[None]:
        """The root span of the op ``record`` around the harness's timed call.

        Inside a root that is already open (a dispatch the driver made),
        only bind ``record`` to it.
        """
        if self._stack:
            self._record = record
            yield
            return
        span = self._open(None, "request", True, "request")
        self._record = record
        try:
            yield
        finally:
            if span is not None:
                self._close(span, self._join_routed_leg)

    def _join_routed_leg(self, span: list[Any]) -> None:
        """Make a routed root span its front-door leg plus what followed.

        The leg ``[arrival, completion]`` lies on the replica's track; the
        root keeps its end on the base timeline and starts the leg's
        length before the front door returned, so its duration is the
        leg plus the base-timeline time after it.
        """
        routed = self._last_routed
        if routed is not None and routed[_PARENT] == span[_SID]:
            span[_M0] = self._routed_return - (routed[_M1] - routed[_M0])

    def after_op(self) -> None:
        """Hook the harness calls between ops (unused while tracing)."""

    @contextlib.contextmanager
    def glue(self) -> Iterator[None]:
        """Mark harness code running inside a request (counted as residual)."""
        span = self._open(None, "glue", False, "glue")
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    # -- the ledger -----------------------------------------------------------

    def _fold(self, spans: list[list[Any]]) -> None:
        """Fold one finished request's spans into the per-layer ledger."""
        by_sid = {span[_SID]: span for span in spans}
        cpu_child: dict[int, int] = defaultdict(int)
        model_child: dict[int, float] = defaultdict(float)
        for span in spans:
            parent = by_sid.get(span[_PARENT])
            if parent is None:
                continue
            cpu_child[parent[_SID]] += span[_C1] - span[_C0]
            if span[_TL] is parent[_TL] or span[_JOINED]:
                model_child[parent[_SID]] += span[_M1] - span[_M0]
        root = spans[0]
        # A span is on the latency path when every link up to the root
        # stays on one timeline or is joined; spans come in open order,
        # parents first.
        on_path: dict[int, bool] = {root[_SID]: True}
        for span in spans:
            parent = by_sid.get(span[_PARENT])
            if parent is not None:
                on_path[span[_SID]] = on_path[parent[_SID]] and (
                    span[_TL] is parent[_TL] or span[_JOINED]
                )
            cpu_self = span[_C1] - span[_C0] - cpu_child[span[_SID]]
            model_self = span[_M1] - span[_M0] - model_child[span[_SID]]
            layer = span[_LAYER]
            if layer is None:
                self.residual_cpu_ns += cpu_self
                if on_path[span[_SID]]:
                    self.residual_model_s += model_self
                continue
            if span[_KIND] == "call":
                self.calls[layer] += 1
            self.cpu_self_ns[layer] += cpu_self
            if on_path[span[_SID]]:
                self.model_self_s[layer] += model_self
            else:
                self.detached_model_s += model_self
        root_cpu = root[_C1] - root[_C0]
        root_model = root[_M1] - root[_M0]
        self.requests += 1
        self.root_cpu_ns += root_cpu
        self.root_model_s += root_model
        self.roots.append((root_cpu, root_model, self._record))
        self._record = None
        if len(self.kept) < KEEP_REQUESTS:
            self.kept.append(spans)

    def root_errors(self) -> list[str]:
        """Requests whose root span is not their op's measured latency.

        Call after the run: a driver fills in modelled latencies when it
        is done.  Each root must equal the op's recorded ``model_s`` and
        span at least its timed ``cpu_ns``.
        """
        errors = []
        for index, (cpu_ns, model_s, record) in enumerate(self.roots):
            if record is None:
                errors.append(f"request {index} has no op record")
            elif abs(model_s - record.model_s) > 1e-9:
                errors.append(
                    f"request {index} ({record.cls}): root {model_s:.9f} s, "
                    f"op latency {record.model_s:.9f} s"
                )
            elif cpu_ns < record.cpu_ns:
                errors.append(
                    f"request {index} ({record.cls}): root {cpu_ns} ns CPU, "
                    f"timed call {record.cpu_ns} ns"
                )
        return errors

    def chrome_trace(self) -> dict[str, Any]:
        """The kept requests as Chrome trace-event JSON (CPU clock, µs)."""
        events = []
        for index, spans in enumerate(self.kept):
            for span in spans:
                events.append(
                    {
                        "name": span[_NAME],
                        "cat": span[_LAYER] or "residual",
                        "ph": "X",
                        "pid": 1,
                        "tid": index,
                        "ts": span[_C0] / 1e3,
                        "dur": (span[_C1] - span[_C0]) / 1e3,
                        "args": {"model_start_s": span[_M0], "model_end_s": span[_M1]},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every method in :data:`LAYERS` on its class."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for cls, names in targets:
                for name in names:
                    original = cls.__dict__.get(name)
                    fn = getattr(cls, name)
                    setattr(cls, name, self._wrap(cls, layer, name, fn))
                    self._patched.append((cls, name, original))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patched):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._patched = []

    def _wrap(self, cls: type, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        entry = (cls, name) in ENTRIES
        after = _AFTER.get((cls, name))
        count = _BYTES.get((cls, name))
        ecall = cls is EnclaveHandle

        def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(obj, *args, **kwargs)
            label = f"{name}:{args[0]}" if ecall else name
            tracer.counts[f"{layer}.{label}"] += 1
            span = tracer._open(layer, label, entry, "call")
            if span is None:
                result = fn(obj, *args, **kwargs)
            else:
                try:
                    result = fn(obj, *args, **kwargs)
                finally:
                    tracer._close(
                        span,
                        None if after is None else lambda span: after(tracer, span, obj, kwargs),
                    )
            if count is not None:
                tracer.bytes[layer] += count(args, result)
            if span is None:
                return result
            if (cls, name) in _CONTEXTS:
                return _TracedContext(tracer, layer, name, result)
            return tracer._adapt(layer, name, result)

        wrapper.__name__ = name
        wrapper.__qualname__ = f"{cls.__name__}.{name}"
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _adapt(self, layer: str, name: str, result: Any) -> Any:
        """Trace generators a call hands back to run later in the caller."""
        if isinstance(result, types.GeneratorType):
            return _TracedIterator(self, layer, name, result)
        if isinstance(result, tuple) and any(
            isinstance(item, types.GeneratorType) for item in result
        ):
            return tuple(
                _TracedIterator(self, layer, name, item)
                if isinstance(item, types.GeneratorType)
                else item
                for item in result
            )
        return result


class _TracedContext:
    """A context manager whose enter and exit are spans of ``layer``."""

    def __init__(self, tracer: Tracer, layer: str, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._inner = inner

    def __enter__(self) -> Any:
        span = self._tracer._open(self._layer, self._name, False, "enter")
        try:
            return self._inner.__enter__()
        finally:
            if span is not None:
                self._tracer._close(span)

    def __exit__(self, *exc_info: Any) -> Any:
        span = self._tracer._open(self._layer, self._name, False, "exit")
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            if span is not None:
                self._tracer._close(span)


class _TracedIterator:
    """An iterator whose every step is a span of ``layer``."""

    def __init__(self, tracer: Tracer, layer: str, name: str, inner: Iterator[Any]) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        span = self._tracer._open(self._layer, self._name, False, "next")
        try:
            item = next(self._inner)
        finally:
            if span is not None:
                self._tracer._close(span)
        return item

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _after_dispatch(tracer: Tracer, span: list[Any], queue: Any, kwargs: dict) -> None:
    """A dispatched request lives on its own track: [arrival, completion]."""
    track = queue.last_track
    if isinstance(queue._clock, ParallelClock) and track is not None and track.end is not None:
        span[_M0], span[_M1], span[_TL] = track.start, track.end, track
        tracer._last_track = track


def _after_route(tracer: Tracer, span: list[Any], cluster: Any, kwargs: dict) -> None:
    """A routed request's front-door leg: [arrival, completion] on its replica's track.

    The leg is on the latency path of the request that made the call.
    """
    arrival = kwargs.get("arrival")
    if arrival is not None:
        tracer._routed_return = span[_M1]
        span[_M0], span[_M1] = arrival, max(cluster.last_completion, arrival)
        span[_TL] = tracer._last_track
        span[_JOINED] = True
        tracer._last_routed = span


_AFTER: dict[tuple[type, str], Callable[[Tracer, list[Any], Any, dict], None]] = {
    (SwitchlessQueue, "dispatch"): _after_dispatch,
    (SeGShareCluster, "handle"): _after_route,
    (SeGShareCluster, "put_file"): _after_route,
}


def _arg_len(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index]) if len(args) > index else 0


def _result_len(args: tuple, result: Any) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


#: Byte counters: bytes of plaintext through the PAE, of file data through
#: the protected FS, of values written to the untrusted backend.
_BYTES: dict[tuple[type, str], Callable[[tuple, Any], int]] = {
    (HmacStreamPae, "encrypt_with_iv"): _arg_len(2),
    (HmacStreamPae, "decrypt"): _result_len,
    (ProtectedFs, "write_file"): _arg_len(1),
    (ProtectedFs, "read_file"): _result_len,
    (ReadHandle, "read_chunk"): _result_len,
    (WriteHandle, "write"): _arg_len(0),
    (InMemoryStore, "put"): _arg_len(1),
}

#: Context-manager methods: their enter and exit become spans, the body
#: of the ``with`` block stays with the caller.
_CONTEXTS = {(LockManager, "acquire"), (StorageEngine, "transaction")}
