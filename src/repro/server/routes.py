"""One declaration per endpoint, for the store and the broker alike.

``@route(method, path, caller=, admission=, writes=)`` says where a
handler is mounted, who may call it and which priority class
(:mod:`repro.net.overload`) it is shed as.  :func:`mount` mounts exactly
the declared handlers of one object and records each one's class in the
``"METHOD path"`` map its host's admission controller classifies by, so a
route cannot exist without a caller and a class.  A web page is declared
with :func:`page`: it names the declared handler it renders and inherits
that handler's caller and class.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from repro.net.http import Request, Router
from repro.net.overload import BROWNOUT_ORDER

#: Who may call an endpoint.  Each but ``open`` (no check) names a
#: ``_caller_*`` prelude of the service that declares it: ``owner``,
#: ``reader``, ``broker``, ``primary`` and ``mover`` are a store's, ``consumer``
#: and ``store`` the broker's, ``key`` (any valid key) both.
CALLERS = ("open", "key", "owner", "reader", "broker", "primary", "mover", "consumer", "store")


class route(NamedTuple):
    """Declare an endpoint: where it is mounted, who may call it, how it is shed.

    Fig. 2's "every access passes the authentication layer", enforced
    here and nowhere else: ``caller`` names the ``_caller_*`` prelude that
    runs before the handler and returns what the handler receives after
    ``request``, if anything.  ``writes=True`` (a store's mutations, and
    its reads, whose audit record is a write) brackets the request with
    ``_require_writable`` *before* the key is looked at (a replica
    answers 409 to anyone).  Hence the one check order:
    primary-for-writes → key → ownership → residency → role → existence.

    **The barrier follows the journal.**  On an owner that journals (a
    store: it declares ``_barrier_mark``), the handler runs inside
    ``_replication_barrier`` whenever the store was a replicating primary
    as the request came in, and the request's last step ships what it
    journaled whenever the route ``writes`` or its handler moved the
    journal's end, whatever the route declares.  So a record
    cannot be journaled outside an acknowledgement: a registration's new
    role row ships under its own ack, while a re-key, which journals
    nothing (keys are never replicated), is answered during a link gap.
    A ``writes`` route keeps the barrier even when it journaled nothing:
    its retry must still wait for what its first attempt journaled.  A
    promotion is served by a replica, so it is answered unbarriered; the
    fail-closed denies it may journal reach its survivors in the resync of
    the link that follows.
    """

    method: str
    path: str
    caller: str
    admission: str
    writes: bool = False

    def __call__(self, handler: Callable) -> Callable:
        if self.caller not in CALLERS:
            raise ValueError(f"unknown caller {self.caller!r}; one of {CALLERS}")
        if self.admission not in BROWNOUT_ORDER:
            raise ValueError(f"unknown class {self.admission!r}; one of {BROWNOUT_ORDER}")
        prelude = None if self.caller == "open" else f"_caller_{self.caller}"
        writes = self.writes

        @functools.wraps(handler)
        def guarded(service, request: Request):
            if writes:
                service._require_writable()
            mark = service._barrier_mark() if hasattr(service, "_barrier_mark") else None
            admitted = getattr(service, prelude)(request) if prelude else None
            if mark is None:
                return handler(service, request, *(admitted or ()))
            with service._replication_barrier(mark, writes):
                return handler(service, request, *(admitted or ()))

        guarded.route = self
        return guarded


def page(path: str, renders: Callable) -> Callable:
    """Declare a web page at ``POST path`` that renders a declared handler.

    The page is admitted as ``renders`` (its caller and class ride along)
    and answers through it with the page's ``Token`` as the key, so it is
    refused exactly as that handler is; ``fn.renders`` names it.
    """
    declared = renders.route._replace(method="POST", path=path)

    def mark(fn: Callable) -> Callable:
        fn.route, fn.renders = declared, renders
        return fn

    return mark


def mount(owner, router: Router, classes: dict) -> dict:
    """Mount every handler ``owner``'s class declares; answer ``classes``
    with each one's ``"METHOD path"`` mapped to its admission class.

    ``classes`` holds what is already mounted on ``router``: a second
    handler for one of its ``"METHOD path"`` keys is a ``ValueError``.
    """
    for klass in reversed(type(owner).__mro__):
        for name, member in vars(klass).items():
            declared = getattr(member, "route", None)
            if isinstance(declared, route):
                key = f"{declared.method} {declared.path}"
                if key in classes:
                    raise ValueError(f"{key} is already mounted")
                router.add(declared.method, declared.path, getattr(owner, name))
                classes[key] = declared.admission
    return classes
