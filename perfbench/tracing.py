"""Span recording around calls into the system's public functions.

The benchmark never edits the program: a traced run replaces chosen
attributes (methods, classmethods, module functions) with wrappers that
record one span per call -- name, start, end, parent span and request
id -- into an in-memory list that is written out when the run ends.
Parents come from a per-thread stack; a request id either comes from
the call's arguments or is inherited from the enclosing span, and a
span that starts on another thread (a shard worker) can name its parent
by request id.
"""

import functools
import inspect
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

from stats import Span


class SpanRecorder:
    """Collects spans from wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.maxima: Dict[str, float] = {}
        self.decoded: Dict[object, float] = {}  # request id -> time
        self.by_rid: Dict[object, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None):
        """Record a span around a block (the benchmark's own steps)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = next(self._ids)
        stack.append((sid, rid))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, rid))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def wrap(self, owner, attr: str, name: str,
             rid_of: Optional[Callable] = None,
             parent_by_rid: bool = False,
             register_rid: bool = False,
             rid_of_result: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_of(args)`` extracts the request id from the call (else it
        is inherited); ``parent_by_rid`` parents the span on the span
        registered for the same request id (cross-thread hand-off);
        ``register_rid`` registers this span for that lookup;
        ``rid_of_result(result)`` names the request only once the call
        returns (a frame decoder learns the id by decoding);
        ``on_result(recorder, args, result, start, end)`` sees each
        return value.
        """
        raw = inspect.getattr_static(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod,
                                              staticmethod)) else None
        func = raw.__func__ if binder is not None else raw
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            rid = rid_of(args) if rid_of is not None else (
                stack[-1][1] if stack else None)
            if parent_by_rid:
                parent = recorder.by_rid.get(rid)
            else:
                parent = stack[-1][0] if stack else None
            sid = next(recorder._ids)
            if register_rid and rid is not None:
                recorder.by_rid[rid] = sid
            stack.append((sid, rid))
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            if rid_of_result is not None:
                rid = rid_of_result(result)
            recorder.spans.append((sid, name, start, end, parent, rid))
            if on_result is not None:
                on_result(recorder, args, result, start, end)
            return result

        setattr(owner, attr, binder(traced) if binder is not None
                else traced)

    def wrap_everywhere(self, func: Callable, name: str, **options) -> None:
        """Wrap ``func`` in every loaded ``repro`` module that imported it
        by name (a module-level ``from x import func`` binds its own
        reference, so wrapping the defining module alone misses it).
        Every site shares one wrapper."""
        sites = [
            (module, attr)
            for module_name, module in list(sys.modules.items())
            if module is not None and (module_name == "repro"
                                       or module_name.startswith("repro."))
            for attr, value in list(vars(module).items())
            if value is func
        ]
        if sites:
            first_module, first_attr = sites[0]
            self.wrap(first_module, first_attr, name, **options)
            wrapper = getattr(first_module, first_attr)
            for module, attr in sites[1:]:
                setattr(module, attr, wrapper)


def _request_id(args) -> object:
    request = args[1]
    return request.get("id") if isinstance(request, dict) else None


def _note_decoded(recorder: SpanRecorder, _args, messages, _start,
                  end) -> None:
    for message in messages:
        recorder.decoded[message.get("id")] = end


def _note_depth(recorder: SpanRecorder, _args, depth, _start, _end) -> None:
    recorder.observe_max("router.queue_depth_max", depth)


def _note_batch(recorder: SpanRecorder, args, _result, _start, _end) -> None:
    recorder.count("crypto.verify_calls", len(args[0]))


def _note_verify(recorder: SpanRecorder, _args, _result, _start,
                 _end) -> None:
    recorder.count("crypto.verify_calls")


def install_codec_and_core(recorder: SpanRecorder) -> None:
    """Layers shared by the service and the discovery protocol."""
    from repro.core.delegation import Delegation, Revocation
    from repro.core.proof import Proof
    from repro.crypto import keys
    from repro.crypto.encoding import canonical_decode, canonical_encode
    from repro.wallet.wallet import Wallet

    recorder.wrap(Delegation, "from_dict", "delegation.decode")
    recorder.wrap(Revocation, "from_dict", "delegation.decode")
    recorder.wrap(Proof, "to_dict", "proof.encode")
    recorder.wrap(keys.PublicKey, "verify", "crypto.verify",
                  on_result=_note_verify)
    recorder.wrap_everywhere(keys.verify_batch, "crypto.verify",
                             on_result=_note_batch)
    recorder.wrap_everywhere(canonical_encode, "codec.encode")
    recorder.wrap_everywhere(canonical_decode, "codec.decode")
    recorder.wrap(Wallet, "publish", "wallet.publish")
    recorder.wrap(Wallet, "authorize", "wallet.authorize")
    recorder.wrap(Wallet, "publish_revocation", "wallet.revoke")


def install_service_layers(recorder: SpanRecorder) -> None:
    """Server-process layers: frames, router, shard, plus the shared ones."""
    from repro.service import router as router_module
    from repro.service import shard as shard_module
    from repro.service import transport

    install_codec_and_core(recorder)
    recorder.wrap(transport.FrameDecoder, "feed", "transport.frame_decode",
                  rid_of_result=lambda messages: (
                      messages[0].get("id") if messages else None),
                  on_result=_note_decoded)
    recorder.wrap(transport, "encode_frame", "transport.frame_encode",
                  rid_of=lambda args: args[0].get("id"))
    recorder.wrap(router_module.Router, "submit", "router.submit",
                  rid_of=_request_id, register_rid=True)
    recorder.wrap(shard_module.ShardRuntime, "handle", "shard.handle",
                  rid_of=_request_id, parent_by_rid=True)
    recorder.wrap(shard_module.ThreadShard, "pending", "router.pending",
                  on_result=_note_depth)


def install_discovery_layers(recorder: SpanRecorder) -> None:
    """In-process discovery layers: engine, RPC, handshakes."""
    from repro.discovery.engine import DiscoveryEngine
    from repro.net.rpc import RpcNode
    from repro.net.switchboard import Switchboard

    install_codec_and_core(recorder)
    recorder.wrap(DiscoveryEngine, "discover", "discovery.discover")
    for method in ("call", "call_batch", "notify"):
        recorder.wrap(RpcNode, method, "net.rpc")
    recorder.wrap(Switchboard, "connect", "net.handshake")
