#!/usr/bin/env python
"""AST lint for the repo's typed-error and fabric-chokepoint invariants.

Plain Python on purpose: the CI lint job has ruff, local dev containers
may not, and these rules are project-specific anyway.  Three checks:

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

3. **One per-message path.**  Inside ``src/repro/exchange``, calls to
   ``Isend`` / ``Irecv`` / ``Waitall`` appear only in ``base.py``: an
   exchanger is a message plan plus a binding, and
   ``Exchanger.exchange`` is the one loop that posts it, so a new
   method cannot grow a private per-message loop unnoticed.

Exit status 1 when any violation is found.  ``--list`` prints the file
set without checking (CI sanity).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List, Tuple

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
MESSAGE_OPS = ("Isend", "Irecv", "Waitall")
#: files under src/repro/exchange allowed to make them: the one generic
#: loop, and the intra-node grid that predates it (not an Exchanger)
MESSAGE_ALLOWLIST = (
    "exchange/base.py",
    "exchange/hierarchical.py",
)

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
    if not rel.startswith("exchange/") or rel in MESSAGE_ALLOWLIST:
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
                    f"`.{fn.attr}()` outside exchange/base.py: build a"
                    " RankMessagePlan and a Binding and let"
                    " Exchanger.exchange post the messages",
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
    violations: List[Violation] = []
    for f in files:
        violations += lint_file(f)
    for path, line, msg in violations:
        print(f"{path.relative_to(REPO)}:{line}: {msg}")
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
