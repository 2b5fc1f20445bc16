#!/usr/bin/env python
"""AST lint for the repo's typed-error and fabric-chokepoint invariants.

Plain Python on purpose: the CI lint job has ruff, local dev containers
may not, and these rules are project-specific anyway.  Nine checks:

1. **No bare raises in the communication layers.**  Inside
   ``src/repro/simmpi`` and ``src/repro/exchange``, ``raise
   RuntimeError(...)`` / ``raise ValueError(...)`` / ``raise
   AssertionError(...)`` and ``assert`` statements are forbidden -- the
   chaos classifier and the degradation ladder dispatch on exception
   *types*, so untyped raises silently fall through them, and
   ``python -O`` strips an ``assert`` altogether.  Use the taxonomy in
   ``repro.faults.errors`` (``ExchangeConfigError``, ``ProtocolError``,
   ``SplitMismatchError``, ...) or a named ``RuntimeError`` subclass.

2. **Fabric operations stay behind the chokepoint.**  Direct calls to
   the fabric's transfer primitives (``post_send``, ``complete_recv``,
   ``bind_request`` and the bound ``*_batch`` calls) are only allowed in
   the fabric itself, the communicator shim, and the channel
   (``exchange/base.py``).  Everything else must go through
   ``SimComm``/``ExchangeChannel`` so envelopes, liveness checks and
   split negotiation cannot be bypassed.

3. **No per-message exchange.**  Inside ``src/repro/exchange``, no
   call to ``Send`` / ``Recv`` appears anywhere: an
   exchanger is a message plan plus a binding, and its channel fires
   the plan as bound cuts, so no method can grow a per-message loop
   beside them.  The per-message path carries collectives only.

4. **One blocking site, one envelope protocol.**  In every file under
   ``src/repro/simmpi`` a ``.wait(...)`` call or a blocking
   ``.acquire(...)`` may appear only inside ``SimFabric._await`` -- it
   blocks on the port's wake, a raw lock used as a binary semaphore,
   and re-takes the fabric lock.  Abort, dead peer and deadlock are
   classified there, once, and deadlock detection counts a rank as
   blocked only there: a rank blocked anywhere else looks like it is
   running, so a deadlock through that place would hang instead of
   raising.  No file under ``src/repro/simmpi`` builds any of the
   ``threading`` classes ``Condition`` (a port wakes through its raw
   lock, which allocates nothing per wait), ``Event`` (a message waits
   in a port, not on a per-message event) or ``Barrier``
   (``SimComm.Barrier`` is a fabric wait).  The texts of the
   sequence-gap and checksum-mismatch errors are spelled in
   ``exchange/envelope.py`` only: a second copy is a second
   implementation of ``verify``.  So are the healing event kinds
   (``resend_suppressed`` / ``replayed`` / ``duplicate_discarded`` /
   ``retransmit``): whoever records one is running a second copy of the
   healing protocol.  And ``envelope_enabled`` / ``_guard`` are read
   nowhere outside ``simmpi/fabric.py``: no layer above the fabric forks
   on verified mode -- a guarded run binds and fires what a plain one
   does.

5. **One geometry construction.**  What every rank of a run shares is
   built once per launched world, by ``core/geometry.py``
   (``RunGeometry``); a second constructor is a second copy that tests
   would have to keep equal.  So under ``src/repro`` the calls
   ``BrickDecomp(...)`` / ``.brick_decomp()`` / ``.brick_info(...)`` /
   ``.initial_global(...)`` appear only there (``BrickDecomp(...)`` in
   ``subdomain_template``: the any-scale model's decomposition of one
   subdomain, built once per modelled geometry, no world launched), and
   in: ``core/problem.py`` (``brick_decomp`` is the definition the geometry
   calls); ``elastic/placement.py`` (validates *candidate* rank grids
   with a trial ``brick_decomp()`` that builds no assignment -- no world
   is launched from it); and, for ``.initial_global(...)`` only, the
   serial reference oracles
   of ``cli.py``, ``faults/chaos.py`` and ``bench/experiments.py`` (D3's
   executed runs) -- they compute what a run is compared *against*.
   And ``SimFabric(...)`` is constructed nowhere under
   ``src/repro/check``: a schedule is data, the verifier needs no
   fabric.

6. **One price, one ledger.**  What an exchange costs is a property of
   the plan a rank bound, priced once by ``exchange/costs.py``
   (``price_exchange``), and an executed run counts and prices what it
   fired in one place, the loop of ``core/runplan.py``.  So under
   ``src/repro`` ``exchange_times(...)`` is called only inside
   ``price_exchange``; ``core/driver.py`` and ``core/runplan.py`` import
   nothing from ``repro.exchange.schedule`` and neither
   ``exchange_breakdown`` nor ``model_timestep`` (nor the retired
   ``first_touch_penalty``: re-deriving a schedule to account for a run
   is a second accounting path); and the
   ledger's accumulations (``+=`` on ``.exchanges`` / ``.messages`` /
   ``.wire_bytes`` / ``.payload_bytes``, or on a ``["msgs"]`` /
   ``["wire"]`` / ``["payload"]`` counter) appear in
   ``core/runplan.py`` only.  Observation adds spans -- on the run
   path rebuilt after the loop from the stamps the ledger measures its
   phases with -- and never keeps a second count: a run's counters are
   read off its ledgers, fabric statistics and run record by
   ``obs.counters``.  So outside
   ``src/repro/obs`` and ``cli.py`` a module binds nothing from
   ``repro.obs`` but ``TRACER`` (neither another name nor the package).

7. **One data-movement tier.**  An exchange side -- pack, unpack, the
   datatype engine, the wire copy -- moves in one bound C call over
   tables frozen at bind (:class:`repro.stencil.cbackend.Movers`); a
   per-message NumPy loop is no path of its own.  So under
   ``src/repro/exchange`` and ``src/repro/simmpi`` a ``for`` loop whose
   body copies into a buffer (``np.copyto(...)``, ``x[:] = ...`` or any
   slice-subscript store) appears nowhere, and no function is exempt:
   even the verified fabric's fault path lands every arrived item in
   one call, over a table built for that receive, which carries the
   injector's corrupted copy as well as a bound send view
   (``simmpi/fabric.py`` ``SimFabric._land``).  A store through a bare name
   (``arr[slc] = view``) cannot be told from a dict store and is not
   matched; the loops this rule is about all have a matched twin.

8. **The docs point at what exists.**  Every backticked repository
   path in ``README.md`` and ``DESIGN.md`` -- a span whose first
   component is one of the repository's top-level directories, with an
   optional ``::name`` or ``:line`` suffix, globs allowed -- names a
   file or directory that exists: a table row that cites a deleted
   module sends the reader nowhere.  Spans with a placeholder (``<id>``,
   ``{...}``, ``$VAR``) are templates, not paths, and are skipped.

9. **One derivation of a rank's message schedule.**  A message's
   spec -- sizes, segments, mappings -- is written down once, by the
   method's schedule template; the static verifier checks the plans
   instantiated from it, the fabric carries them and the any-scale model
   prices them.  So under ``src/repro`` ``MessageSpec(...)`` is
   constructed only in the template modules named in ``SPEC_HOMES``
   (``exchange/layout_ex.py``, ``exchange/memmap_ex.py``, and
   ``exchange/schedule.py`` for the array schemes' boxes and faces): a
   spec built anywhere else is a second derivation that a test would
   have to keep equal to the first.

Every file an allowlist names must exist under ``src/repro``: a stale
entry would silently exempt whatever file lands at that path later.

Exit status 1 when any violation is found.  ``--list`` prints the file
set without checking (CI sanity).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: packages where bare RuntimeError/ValueError raises are forbidden
TYPED_ERROR_PACKAGES = ("simmpi", "exchange")
BARE_RAISES = ("RuntimeError", "ValueError", "AssertionError")

#: fabric transfer primitives that must stay behind the chokepoint
FABRIC_OPS = (
    "post_send",
    "complete_recv",
    "post_send_batch",
    "complete_recv_batch",
    "wait_send_batch",
    "bind_request",
)
#: files allowed to touch them, relative to src/repro
FABRIC_ALLOWLIST = (
    "simmpi/fabric.py",
    "simmpi/comm.py",
    "exchange/base.py",
)

#: point-to-point calls that make up a per-message exchange loop
MESSAGE_OPS = ("Send", "Recv")

#: the one function under simmpi/ allowed to block (it is in fabric.py)
WAIT_FILE = "simmpi/fabric.py"
WAIT_HELPER = "_await"
#: ``threading`` classes no file under simmpi/ builds, and why not
BANNED_PRIMITIVES = {
    "Condition": "a port wakes through its raw lock used as a binary"
    " semaphore, which allocates nothing per wait",
    "Event": "a message waits in its destination's port and the waiter"
    f" blocks in SimFabric.{WAIT_HELPER}, not on a per-message event",
    "Barrier": "SimComm.Barrier is a fabric wait, an arrival set and a"
    f" generation count waited on in SimFabric.{WAIT_HELPER}",
}
#: error texts of the envelope check, and the one file that spells them
ENVELOPE_PHRASES = ("sequence gap on", "checksum mismatch on")
ENVELOPE_HOME = "exchange/envelope.py"
#: event kinds only the healing protocol records (whole-string matches)
HEALING_KINDS = (
    "resend_suppressed", "replayed", "duplicate_discarded", "retransmit",
)
#: how the fabric knows it is verified, and the one file that may ask
VERIFIED_MODE_ATTRS = ("envelope_enabled", "_guard")
VERIFIED_MODE_HOME = "simmpi/fabric.py"

#: calls that build rank-invariant geometry, and who may make them
#: (reasons in the module docstring, rule 5)
GEOMETRY_HOME = "core/geometry.py"
GEOMETRY_METHODS = ("brick_decomp", "brick_info", "initial_global")
GEOMETRY_ALLOWLIST = {
    GEOMETRY_HOME: GEOMETRY_METHODS + ("BrickDecomp",),
    "core/problem.py": ("BrickDecomp",),
    "elastic/placement.py": ("brick_decomp",),
    "cli.py": ("initial_global",),
    "faults/chaos.py": ("initial_global",),
    "bench/experiments.py": ("initial_global",),
}

#: the one pricer, its home, and the primitive only it may call
PRICER_HOME = "exchange/costs.py"
PRICER = "price_exchange"
PRICER_PRIMITIVE = "exchange_times"
#: who steps and sets up an executed run, and what they may not import
RUN_FILES = ("core/driver.py", "core/runplan.py")
REDERIVATION_MODULE = "repro.exchange.schedule"
REDERIVATION_NAMES = (
    "exchange_breakdown", "model_timestep", "first_touch_penalty",  # retired
)
#: the ledger's accumulated fields (and the retired dict's keys), and
#: the one file that may add to them
LEDGER_HOME = "core/runplan.py"
LEDGER_FIELDS = ("exchanges", "messages", "wire_bytes", "payload_bytes")
LEDGER_KEYS = ("msgs", "wire", "payload")
#: the observability package, the one name others may bind from it, and
#: the files that may bind the rest
OBS_MODULE = "repro.obs"
OBS_EXPORT = "TRACER"
OBS_HOMES = ("obs/", "cli.py")

#: packages whose exchange sides move in one bound C call (rule 7)
COPY_TIER_PACKAGES = ("exchange", "simmpi")

#: the modules that write a message's spec down: the schedule
#: templates (rule 9)
SPEC_HOMES = (
    "exchange/layout_ex.py",
    "exchange/memmap_ex.py",
    "exchange/schedule.py",
)

#: docs whose backticked repository paths must resolve (rule 8)
DOC_FILES = ("README.md", "DESIGN.md")
DOC_PATH_ROOTS = (".github", "benchmarks", "examples", "src", "tests", "tools")
_BACKTICKED = re.compile(r"`([^`\s]+)`")
_PATH_SUFFIX = re.compile(r"(::.*|:[\d,-]+)$")

Violation = Tuple[Path, int, str]


def check_bare_raises(path: Path, tree: ast.AST) -> List[Violation]:
    out: List[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(
                (
                    path,
                    node.lineno,
                    "`assert` vanishes under `python -O`: check the"
                    " condition and raise a typed error from"
                    " repro.faults.errors instead",
                )
            )
            continue
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        # `raise ValueError(...)` and bare `raise ValueError`
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in BARE_RAISES:
            out.append(
                (
                    path,
                    node.lineno,
                    f"bare `raise {name}`: use a typed error from"
                    " repro.faults.errors (ExchangeConfigError,"
                    " ProtocolError, ...) so the chaos classifier and"
                    " the ladder can dispatch on it",
                )
            )
    return out


def check_fabric_chokepoint(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if rel in FABRIC_ALLOWLIST:
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in FABRIC_OPS:
            out.append(
                (
                    path,
                    node.lineno,
                    f"direct fabric `.{fn.attr}()` call outside the"
                    " chokepoint; go through SimComm or ExchangeChannel"
                    " so envelopes/liveness/split negotiation apply",
                )
            )
    return out


def check_message_path(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if not rel.startswith("exchange/"):
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in MESSAGE_OPS:
            out.append(
                (
                    path,
                    node.lineno,
                    f"`.{fn.attr}()` under exchange/: build a"
                    " RankMessagePlan and a Binding and let the"
                    " exchanger's channel fire them as bound cuts",
                )
            )
    return out


def check_one_blocking_site(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    out: List[Violation] = []
    if rel != VERIFIED_MODE_HOME:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in VERIFIED_MODE_ATTRS:
                out.append(
                    (
                        path,
                        node.lineno,
                        f"`.{node.attr}` outside {VERIFIED_MODE_HOME}: bind"
                        " and fire the request as on a plain fabric; the"
                        " fabric consults its guard per item, and nothing"
                        " above it forks on verified mode",
                    )
                )
    if rel != ENVELOPE_HOME:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if node.value in HEALING_KINDS:
                out.append(
                    (
                        path,
                        node.lineno,
                        f"healing event kind {node.value!r} outside"
                        f" {ENVELOPE_HOME}: the healing protocol has one"
                        " copy, EnvelopeGuard, and only it records its steps",
                    )
                )
            for phrase in ENVELOPE_PHRASES:
                if phrase in node.value:
                    out.append(
                        (
                            path,
                            node.lineno,
                            f"envelope error text {phrase!r} outside"
                            f" {ENVELOPE_HOME}: call seal()/verify()"
                            " instead of re-implementing the check",
                        )
                    )
    if not rel.startswith("simmpi/"):
        return out
    in_helper = set()
    if rel == WAIT_FILE:
        in_helper = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == WAIT_HELPER
            for node in ast.walk(fn)
        }
    for node in ast.walk(tree):
        name = _threading_name(node)
        if name in BANNED_PRIMITIVES:
            out.append(
                (
                    path,
                    node.lineno,
                    f"`threading.{name}` under simmpi/: "
                    + BANNED_PRIMITIVES[name],
                )
            )
        if (
            not isinstance(node, ast.Call)
            or not isinstance(node.func, ast.Attribute)
            or id(node) in in_helper
        ):
            continue
        attr = node.func.attr
        if attr == "wait" or (attr == "acquire" and _blocking(node)):
            out.append(
                (
                    path,
                    node.lineno,
                    f"`.{attr}()` outside SimFabric.{WAIT_HELPER}: block"
                    " only through the one wait, where abort / dead peer /"
                    " deadlock are classified and a blocked rank is counted"
                    " toward deadlock detection",
                )
            )
    return out


def _threading_name(node: ast.AST) -> Optional[str]:
    """The class *node* names: ``threading.X``, or one of the names of a
    ``from threading import ...`` (None: neither)."""
    if isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Name) and value.id == "threading":
            return node.attr
    elif isinstance(node, ast.ImportFrom) and node.module == "threading":
        for alias in node.names:
            if alias.name in BANNED_PRIMITIVES:
                return alias.name
    return None


def _blocking(call: ast.Call) -> bool:
    """An ``acquire`` call that may block: not ``acquire(False)`` nor
    ``acquire(blocking=False)``."""
    flags = list(call.args[:1])
    flags += [k.value for k in call.keywords if k.arg == "blocking"]
    return not any(
        isinstance(flag, ast.Constant) and flag.value is False for flag in flags
    )


def check_one_geometry(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    allowed = GEOMETRY_ALLOWLIST.get(rel, ())
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        # The constructors are called by bare name, the rest as methods.
        name = fn.id if isinstance(fn, ast.Name) else None
        if name == "SimFabric" and rel.startswith("check/"):
            out.append(
                (
                    path,
                    node.lineno,
                    "`SimFabric(...)` under check/: a schedule is data --"
                    " verify the RunGeometry's plans, no fabric needed",
                )
            )
        if name != "BrickDecomp":
            name = fn.attr if isinstance(fn, ast.Attribute) else None
            if name not in GEOMETRY_METHODS:
                continue
        if name not in allowed:
            out.append(
                (
                    path,
                    node.lineno,
                    f"`{name}(...)` outside {GEOMETRY_HOME}: what every rank"
                    " shares is built once per world by RunGeometry; read"
                    " it from the geometry instead of constructing a"
                    " second copy",
                )
            )
    return out


def _obs_bindings(node) -> List[str]:
    """What an import binds from ``repro.obs`` other than the tracer."""
    if isinstance(node, ast.Import):
        return [
            a.name for a in node.names
            if (a.name + ".").startswith(OBS_MODULE + ".")
        ]
    module = node.module or ""
    if module == "repro":
        return [a.name for a in node.names if a.name == "obs"]
    if (module + ".").startswith(OBS_MODULE + "."):
        return [a.name for a in node.names if a.name != OBS_EXPORT]
    return []


def check_one_ledger(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    out: List[Violation] = []
    in_pricer = set()
    if rel == PRICER_HOME:
        in_pricer = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == PRICER
            for node in ast.walk(fn)
        }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            if name == PRICER_PRIMITIVE and id(node) not in in_pricer:
                out.append(
                    (
                        path,
                        node.lineno,
                        f"`{PRICER_PRIMITIVE}(...)` outside {PRICER_HOME}::"
                        f"{PRICER}: price a plan or a schedule through the"
                        " one pricer, so GPU transport terms cannot be left"
                        " out of one side",
                    )
                )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not rel.startswith(OBS_HOMES):
                for name in _obs_bindings(node):
                    out.append(
                        (
                            path,
                            node.lineno,
                            f"`{name}` bound from {OBS_MODULE}: observation"
                            f" adds spans ({OBS_EXPORT}) and keeps no second"
                            " count; read a counter off the run"
                            " (obs.counters)",
                        )
                    )
            module = getattr(node, "module", None)
            names = [alias.name for alias in node.names]
            if rel in RUN_FILES and (
                module == REDERIVATION_MODULE
                or REDERIVATION_MODULE in names
                or any(n in REDERIVATION_NAMES for n in names)
            ):
                out.append(
                    (
                        path,
                        node.lineno,
                        "the executed run re-derives no schedule: it charges"
                        " the ExchangeResult of the plan the rank bound"
                        " (geometry.results), not exchange_breakdown /"
                        f" model_timestep / {REDERIVATION_MODULE}",
                    )
                )
        elif isinstance(node, ast.AugAssign) and rel != LEDGER_HOME:
            target = node.target
            if isinstance(target, ast.Attribute):
                hit = target.attr in LEDGER_FIELDS
            else:
                hit = (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value in LEDGER_KEYS
                )
            if hit:
                out.append(
                    (
                        path,
                        node.lineno,
                        f"ledger accumulation outside {LEDGER_HOME}: the run"
                        " loop is the only writer of RankMetrics; read the"
                        " ledger instead of keeping a second count",
                    )
                )
    return out


def _is_buffer_copy(node: ast.AST) -> bool:
    """``np.copyto(...)``, or a store through a slice subscript."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "copyto"
    if not isinstance(node, ast.Assign):
        return False
    for target in node.targets:
        if not isinstance(target, ast.Subscript):
            continue
        index = target.slice
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        if any(isinstance(part, ast.Slice) for part in parts):
            return True
    return False


def check_copy_tier(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if rel.split("/", 1)[0] not in COPY_TIER_PACKAGES:
        return []
    out: List[Violation] = []
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.For):
            continue
        for node in ast.walk(loop):
            if _is_buffer_copy(node):
                out.append(
                    (
                        path,
                        node.lineno,
                        "a per-message copy loop: bind the side once"
                        " (exchange/boxes.py bind_gather / bind_scatter,"
                        " or the fabric's copy table) so it"
                        " moves in one C call",
                    )
                )
    return out


def check_one_schedule(path: Path, tree: ast.AST) -> List[Violation]:
    rel = path.relative_to(SRC).as_posix()
    if rel in SPEC_HOMES:
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        if name == "MessageSpec":
            out.append(
                (
                    path,
                    node.lineno,
                    "`MessageSpec(...)` outside the schedule templates: a"
                    " second derivation of a message schedule; take the"
                    " specs from exchange.schedule_template's plans",
                )
            )
    return out


def check_allowlists() -> List[Violation]:
    allowlists = {
        "FABRIC_ALLOWLIST": FABRIC_ALLOWLIST,
        "GEOMETRY_ALLOWLIST": tuple(GEOMETRY_ALLOWLIST),
        "SPEC_HOMES": SPEC_HOMES,
    }
    return [
        (
            SRC / rel,
            0,
            f"{name} names {rel}, which is not a file under src/repro:"
            " drop the stale entry before another file lands at that path",
        )
        for name, rels in allowlists.items()
        for rel in rels
        if not (SRC / rel).is_file()
    ]


def check_doc_paths(path: Path, text: str) -> List[Violation]:
    out: List[Violation] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for span in _BACKTICKED.findall(line):
            rel = _PATH_SUFFIX.sub("", span).rstrip("/")
            if rel.split("/", 1)[0] not in DOC_PATH_ROOTS or "/" not in rel:
                continue
            if any(c in rel for c in "<{$"):
                continue
            if ("*" in rel and any(REPO.glob(rel))) or (REPO / rel).exists():
                continue
            out.append(
                (
                    path,
                    lineno,
                    f"`{span}` names {rel}, which does not exist: point the"
                    " doc at what replaced it, or drop the reference",
                )
            )
    return out


def lint_file(path: Path) -> List[Violation]:
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(SRC).as_posix()
    out: List[Violation] = []
    if rel.split("/", 1)[0] in TYPED_ERROR_PACKAGES:
        out += check_bare_raises(path, tree)
    out += check_fabric_chokepoint(path, tree)
    out += check_message_path(path, tree)
    out += check_one_blocking_site(path, tree)
    out += check_one_geometry(path, tree)
    out += check_one_ledger(path, tree)
    out += check_copy_tier(path, tree)
    out += check_one_schedule(path, tree)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true",
                    help="print the checked file set and exit")
    args = ap.parse_args(argv)
    files = sorted(SRC.rglob("*.py"))
    if args.list:
        for f in files:
            print(f.relative_to(REPO))
        return 0
    violations = check_allowlists()
    for f in files:
        violations += lint_file(f)
    for doc in DOC_FILES:
        violations += check_doc_paths(REPO / doc, (REPO / doc).read_text())
    for path, line, msg in violations:
        print(f"{path.relative_to(REPO)}:{line}: {msg}")
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
