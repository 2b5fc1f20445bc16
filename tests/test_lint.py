"""The invariant lint passes on the repo and catches planted violations."""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import lint_invariants  # noqa: E402


def test_repo_is_clean(capsys):
    assert lint_invariants.main([]) == 0
    out = capsys.readouterr().out
    assert "files clean" in out


def test_list_mode(capsys):
    assert lint_invariants.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "src/repro/simmpi/fabric.py" in out


def test_bare_raise_flagged():
    src = (
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    raise RuntimeError\n"
    )
    path = lint_invariants.SRC / "simmpi" / "synthetic.py"
    violations = sorted(
        lint_invariants.check_bare_raises(path, ast.parse(src)),
        key=lambda v: v[1],
    )
    assert len(violations) == 2
    assert violations[0][1] == 3 and "ValueError" in violations[0][2]
    assert violations[1][1] == 4 and "RuntimeError" in violations[1][2]


def test_assert_and_assertion_error_flagged():
    src = (
        "def f(x):\n"
        "    assert x >= 0, 'negative'\n"
        "    if x > 9:\n"
        "        raise AssertionError('too big')\n"
    )
    path = lint_invariants.SRC / "exchange" / "synthetic.py"
    violations = sorted(
        lint_invariants.check_bare_raises(path, ast.parse(src)),
        key=lambda v: v[1],
    )
    assert [v[1] for v in violations] == [2, 4]
    assert "python -O" in violations[0][2]
    assert "AssertionError" in violations[1][2]


def test_typed_raise_not_flagged():
    src = (
        "def f():\n"
        "    raise SplitMismatchError('split disagreement')\n"
    )
    path = lint_invariants.SRC / "simmpi" / "synthetic.py"
    assert lint_invariants.check_bare_raises(path, ast.parse(src)) == []


def test_fabric_call_outside_chokepoint_flagged():
    src = "def f(fabric):\n    fabric.post_send(0, 1, 2, b'x')\n"
    path = lint_invariants.SRC / "exchange" / "synthetic.py"
    violations = lint_invariants.check_fabric_chokepoint(
        path, ast.parse(src)
    )
    assert len(violations) == 1
    assert "post_send" in violations[0][2]


def test_bind_entry_point_is_a_chokepoint_op():
    src = "def f(fabric, posts):\n    return fabric.bind_request(0, posts, [])\n"
    path = lint_invariants.SRC / "core" / "synthetic.py"
    violations = lint_invariants.check_fabric_chokepoint(
        path, ast.parse(src)
    )
    assert len(violations) == 1 and "bind_request" in violations[0][2]
    assert lint_invariants.FABRIC_ALLOWLIST == (
        "simmpi/fabric.py", "simmpi/comm.py", "exchange/base.py",
    )


def test_fabric_call_in_allowlisted_file_ok():
    src = "def f(fabric):\n    fabric.post_send(0, 1, 2, b'x')\n"
    path = lint_invariants.SRC / "simmpi" / "comm.py"
    assert lint_invariants.check_fabric_chokepoint(path, ast.parse(src)) == []


def test_per_message_loop_outside_base_flagged():
    src = (
        "def exchange(comm, buf):\n"
        "    comm.Send(buf, 1, 7)\n"
        "    comm.Recv(buf, 1, 7)\n"
    )
    tree = ast.parse(src)
    method_file = lint_invariants.SRC / "exchange" / "synthetic.py"
    violations = lint_invariants.check_message_path(method_file, tree)
    assert sorted(v[1] for v in violations) == [2, 3]
    assert all("bound cuts" in v[2] for v in violations)
    # Code outside exchange/ (collectives, examples) may post messages.
    assert lint_invariants.check_message_path(
        lint_invariants.SRC / "simmpi" / "collectives.py", tree
    ) == []


def test_per_message_call_in_base_flagged():
    # exchange/base.py is no exception: every exchanger fires bound cuts.
    src = "def exchange(comm, buf):\n    comm.Send(buf, 1, 7)\n    comm.Recv(buf, 1, 7)\n"
    base = lint_invariants.SRC / "exchange" / "base.py"
    violations = lint_invariants.check_message_path(base, ast.parse(src))
    assert sorted(v[2].split("`")[1] for v in violations) == [".Recv()", ".Send()"]
    assert not hasattr(lint_invariants, "MESSAGE_ALLOWLIST")


def test_wait_outside_the_one_helper_flagged():
    src = (
        "class SimFabric:\n"
        "    def _await(self, rank, ready, missing):\n"
        "        while not ready():\n"
        "            self._ports[rank].cond.wait(1.0)\n"
        "    def wait_send(self, entry):\n"
        "        while not entry.done:\n"
        "            self._ports[entry.src].cond.wait(0.1)\n"
    )
    tree = ast.parse(src)
    fabric = lint_invariants.SRC / "simmpi" / "fabric.py"
    violations = lint_invariants.check_one_blocking_site(fabric, tree)
    assert [v[1] for v in violations] == [7]
    assert "_await" in violations[0][2]
    # The helper is the fabric's: an ``_await`` of another file is none.
    violations = lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "simmpi" / "comm.py", tree
    )
    assert [v[1] for v in violations] == [4, 7]


def test_barrier_wait_outside_the_one_helper_flagged():
    # A threading.Barrier blocks a rank where deadlock detection cannot
    # count it: the barrier is a fabric wait, in every file of simmpi/.
    src = (
        "import threading\n"
        "from threading import Barrier\n"
        "class SimComm:\n"
        "    def __init__(self, fabric):\n"
        "        self.barrier = threading.Barrier(fabric.nranks)\n"
        "    def Barrier(self):\n"
        "        self.fabric.barrier.wait()\n"
    )
    tree = ast.parse(src)
    for rel in ("comm.py", "fabric.py", "launcher.py"):
        violations = lint_invariants.check_one_blocking_site(
            lint_invariants.SRC / "simmpi" / rel, tree
        )
        assert sorted(v[1] for v in violations) == [2, 5, 7]
        assert sum("threading.Barrier" in v[2] for v in violations) == 2
        assert "SimFabric._await" in violations[-1][2]
    assert lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "ckpt" / "store.py", tree
    ) == []


def test_blocking_acquire_outside_the_wake_primitive_flagged():
    src = (
        "class _Port:\n"
        "    def __init__(self):\n"
        "        self.wake.acquire(False)\n"
        "class SimFabric:\n"
        "    def _await(self, rank, ready, missing):\n"
        "        self._lock.release()\n"
        "        self._ports[rank].wake.acquire()\n"
        "        self._lock.acquire()\n"
        "    def complete_recv_batch(self, cut):\n"
        "        self._ports[cut.rank].wake.acquire()\n"
        "        self._ports[cut.rank].wake.acquire(timeout=1.0)\n"
        "        self._ports[cut.rank].wake.acquire(blocking=False)\n"
    )
    tree = ast.parse(src)
    fabric = lint_invariants.SRC / "simmpi" / "fabric.py"
    violations = lint_invariants.check_one_blocking_site(fabric, tree)
    assert [v[1] for v in violations] == [10, 11]
    assert all("SimFabric._await" in v[2] for v in violations)
    # Every file of simmpi/ is scanned; only the fabric has the helper.
    violations = lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "simmpi" / "collectives.py", tree
    )
    assert [v[1] for v in violations] == [7, 8, 10, 11]
    assert lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "stencil" / "cbackend.py", tree
    ) == []


def test_condition_in_the_fabric_flagged():
    src = (
        "import threading\n"
        "from threading import Condition\n"
        "class _Port:\n"
        "    def __init__(self, lock):\n"
        "        self.cond = threading.Condition(lock)\n"
    )
    tree = ast.parse(src)
    for rel in ("fabric.py", "launcher.py"):
        violations = lint_invariants.check_one_blocking_site(
            lint_invariants.SRC / "simmpi" / rel, tree
        )
        assert sorted(v[1] for v in violations) == [2, 5]
        assert all("binary semaphore" in v[2] for v in violations)
    assert lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "obs" / "tracer.py", tree
    ) == []


def test_per_message_event_flagged():
    src = (
        "import threading\n"
        "from threading import Event\n"
        "class _SendEntry:\n"
        "    def __init__(self):\n"
        "        self.done = threading.Event()\n"
    )
    tree = ast.parse(src)
    violations = lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "simmpi" / "request.py", tree
    )
    assert sorted(v[1] for v in violations) == [2, 5]
    assert all("threading.Event" in v[2] for v in violations)
    assert lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "faults" / "runtime.py", tree
    ) == []


def test_second_copy_of_the_envelope_check_flagged():
    src = (
        "def recv(entry, expected, crc):\n"
        "    if entry.seq != expected:\n"
        "        raise ExchangeIntegrityError(\n"
        "            f'sequence gap on {entry.edge}: got seq {entry.seq}')\n"
        "    if crc != entry.crc:\n"
        "        raise ExchangeIntegrityError('checksum mismatch on the wire')\n"
    )
    tree = ast.parse(src)
    violations = lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "simmpi" / "fabric.py", tree
    )
    assert sorted(v[1] for v in violations) == [4, 6]
    assert all("verify()" in v[2] for v in violations)
    home = lint_invariants.SRC / lint_invariants.ENVELOPE_HOME
    assert lint_invariants.check_one_blocking_site(home, tree) == []


def test_second_copy_of_the_healing_protocol_flagged():
    src = (
        "def complete_recv(self, entry, injector):\n"
        "    # prose may say so: a retransmit is queued\n"
        "    doc = 'the retransmit is queued before this is raised'\n"
        "    if entry.seq <= self.delivered:\n"
        "        injector.record('duplicate_discarded', seq=entry.seq)\n"
        "    injector.record(kind='retransmit')\n"
        "    events = {'replayed': 0, 'resend_suppressed': 0, 'healed': 0}\n"
    )
    tree = ast.parse(src)
    violations = lint_invariants.check_one_blocking_site(
        lint_invariants.SRC / "simmpi" / "fabric.py", tree
    )
    assert sorted(v[1] for v in violations) == [5, 6, 7, 7]
    assert all("EnvelopeGuard" in v[2] for v in violations)
    home = lint_invariants.SRC / lint_invariants.ENVELOPE_HOME
    assert lint_invariants.check_one_blocking_site(home, tree) == []


def test_fork_on_verified_mode_above_the_fabric_flagged():
    src = (
        "def make_channel(self):\n"
        "    if self.comm.fabric.envelope_enabled:\n"
        "        return None\n"
        "    if self.comm.fabric._guard is not None:\n"
        "        return None\n"
    )
    tree = ast.parse(src)
    for rel in ("exchange/base.py", "core/driver.py", "exchange/envelope.py"):
        violations = lint_invariants.check_one_blocking_site(
            lint_invariants.SRC / rel, tree
        )
        assert sorted(v[1] for v in violations) == [2, 4]
        assert all("forks on verified mode" in v[2] for v in violations)
    fabric = lint_invariants.SRC / lint_invariants.VERIFIED_MODE_HOME
    assert lint_invariants.check_one_blocking_site(fabric, tree) == []


def test_second_geometry_constructor_flagged():
    src = (
        "def _brick_state(problem, seed):\n"
        "    decomp = problem.brick_decomp()\n"
        "    other = BrickDecomp((16, 16, 16), (8, 8, 8), 8)\n"
        "    binfo = decomp.brick_info(decomp.assignment(1))\n"
        "    return binfo, problem.initial_global(seed)\n"
    )
    tree = ast.parse(src)
    for rel in ("core/driver.py", "elastic/rebrick.py", "check/memory.py"):
        violations = lint_invariants.check_one_geometry(
            lint_invariants.SRC / rel, tree
        )
        assert sorted(v[1] for v in violations) == [2, 3, 4, 5]
        assert all("RunGeometry" in v[2] for v in violations)
    # The geometry's home builds the modelled subdomain's decomposition.
    home = lint_invariants.SRC / lint_invariants.GEOMETRY_HOME
    assert lint_invariants.check_one_geometry(home, tree) == []
    # Allowlisted files may make the calls their reason covers, only.
    placement = lint_invariants.SRC / "elastic" / "placement.py"
    flagged = lint_invariants.check_one_geometry(placement, tree)
    assert sorted(v[1] for v in flagged) == [3, 4, 5]
    oracle = lint_invariants.SRC / "faults" / "chaos.py"
    flagged = lint_invariants.check_one_geometry(oracle, tree)
    assert sorted(v[1] for v in flagged) == [2, 3, 4]


def test_second_schedule_derivation_flagged():
    src = (
        "def layout_sends(grid, width, layout, brick_bytes):\n"
        "    nb = math.prod(region_brick_extent(layout[0], grid, width))\n"
        "    return [MessageSpec(layout[0], nb * brick_bytes, nb * brick_bytes)]\n"
        "def mirror(m, neighbor):\n"
        "    return schedule.MessageSpec(neighbor, m.payload_bytes, m.wire_bytes)\n"
    )
    tree = ast.parse(src)
    for rel in ("core/model.py", "core/geometry.py", "bench/experiments.py",
                "exchange/costs.py", "exchange/boxes.py"):
        violations = lint_invariants.check_one_schedule(
            lint_invariants.SRC / rel, tree
        )
        assert sorted(v[1] for v in violations) == [3, 5]
        assert all("second derivation" in v[2] for v in violations)
    # The templates are where a message's spec is written down.
    for rel in lint_invariants.SPEC_HOMES:
        home = lint_invariants.SRC / rel
        assert lint_invariants.check_one_schedule(home, tree) == []


def test_stale_allowlist_entry_flagged(monkeypatch, capsys):
    assert lint_invariants.check_allowlists() == []
    stale = dict(lint_invariants.GEOMETRY_ALLOWLIST)
    stale["ckpt/bench.py"] = ("BrickDecomp",)
    monkeypatch.setattr(lint_invariants, "GEOMETRY_ALLOWLIST", stale)
    monkeypatch.setattr(lint_invariants, "FABRIC_ALLOWLIST", ("exchange/gone.py",))
    violations = lint_invariants.check_allowlists()
    assert [v[0] for v in violations] == [
        lint_invariants.SRC / "exchange/gone.py", lint_invariants.SRC / "ckpt/bench.py"
    ]
    assert all("stale entry" in v[2] for v in violations)
    assert lint_invariants.main([]) == 1
    assert "GEOMETRY_ALLOWLIST names ckpt/bench.py" in capsys.readouterr().out


def test_fabric_in_the_verifier_flagged():
    src = (
        "def iter_rank_geometries(problem):\n"
        "    fabric = SimFabric(problem.nranks)\n"
    )
    tree = ast.parse(src)
    violations = lint_invariants.check_one_geometry(
        lint_invariants.SRC / "check" / "geometry.py", tree
    )
    assert [v[1] for v in violations] == [2]
    assert "no fabric" in violations[0][2]
    driver = lint_invariants.SRC / "core" / "driver.py"
    assert lint_invariants.check_one_geometry(driver, tree) == []


def test_second_accounting_path_flagged():
    src = (
        "from repro.core.model import exchange_breakdown, compute_time\n"
        "from repro.exchange.schedule import array_schedule\n"
        "import repro.exchange.schedule\n"
        "def _modelled_totals(profile, net, phases, counters, ledger, res):\n"
        "    bd = exchange_times(profile, net, phases, 'none')\n"
        "    counters['msgs'] += res.messages_sent\n"
        "    ledger.wire_bytes += res.wire_bytes_sent\n"
        "    ledger.timesteps += 1\n"
    )
    tree = ast.parse(src)
    for rel in ("core/driver.py", "core/runplan.py"):
        violations = lint_invariants.check_one_ledger(
            lint_invariants.SRC / rel, tree
        )
        ledger = [] if rel == lint_invariants.LEDGER_HOME else [6, 7]
        assert sorted(v[1] for v in violations) == [1, 2, 3, 5] + ledger
    # Anyone else may import the model, nobody may keep a second count.
    violations = sorted(
        lint_invariants.check_one_ledger(
            lint_invariants.SRC / "bench" / "experiments.py", tree
        ),
        key=lambda v: v[1],
    )
    assert [v[1] for v in violations] == [5, 6, 7]
    assert "one pricer" in violations[0][2]
    assert all("only writer" in v[2] for v in violations[1:])


def test_second_count_beside_the_tracer_flagged():
    src = (
        "from repro.obs import TRACER as _TRACER\n"
        "from repro.obs import METRICS as _METRICS\n"
        "from repro.obs.tracer import Tracer\n"
        "from repro import obs\n"
        "import repro.obs\n"
    )
    tree = ast.parse(src)
    for rel in ("simmpi/fabric.py", "core/runplan.py", "ckpt/snapshot.py"):
        violations = lint_invariants.check_one_ledger(
            lint_invariants.SRC / rel, tree
        )
        assert [v[1] for v in violations] == [2, 3, 4, 5]
        assert "`METRICS` bound from repro.obs" in violations[0][2]
    # The layer itself and the CLI that writes its trace may bind it all.
    for rel in ("obs/export.py", "cli.py"):
        assert not lint_invariants.check_one_ledger(
            lint_invariants.SRC / rel, tree
        )


def test_exchange_times_only_inside_the_shared_pricer():
    src = (
        "def price_exchange(profile, phases, copy, transport=None):\n"
        "    return exchange_times(profile, profile.network, phases, copy)\n"
        "def price_plan(plan, profile):\n"
        "    return exchange_times(profile, profile.network, [], plan.copy)\n"
    )
    tree = ast.parse(src)
    home = lint_invariants.SRC / lint_invariants.PRICER_HOME
    assert [v[1] for v in lint_invariants.check_one_ledger(home, tree)] == [4]
    base = lint_invariants.SRC / "exchange" / "base.py"
    assert [v[1] for v in lint_invariants.check_one_ledger(base, tree)] == [2, 4]


def test_per_message_copy_loop_outside_the_numpy_tier_flagged():
    src = (
        "import numpy as np\n"
        "def _bind(arr, packs, unpacks, recv, sent):\n"
        "    def pack():\n"
        "        for view, slc in packs:\n"
        "            np.copyto(view, arr[slc])\n"
        "    def unpack():\n"
        "        for lo, hi, view in unpacks:\n"
        "            arr[lo:hi, :] = view\n"
        "    for r, s in zip(recv, sent):\n"
        "        r[:] = s\n"
        "    for k, v in packs:\n"
        "        arr[k] = v\n"  # a bare-name store: could be a dict
        "    recv[0][:] = sent[0]\n"  # not in a loop
        "    return pack, unpack\n"
    )
    path = lint_invariants.SRC / "exchange" / "synthetic.py"
    violations = lint_invariants.check_copy_tier(path, ast.parse(src))
    assert sorted(v[1] for v in violations) == [5, 8, 10]
    assert all("one C call" in v[2] for v in violations)
    # No function name is exempt: not the box movers' home, not the
    # fabric's fault path (it lands in one call too), no method file.
    for rel, names in (
        ("exchange/boxes.py", ("bind_gather", "stage_table")),
        ("simmpi/fabric.py", ("_land", "_land_faulted", "_recv_items")),
        ("exchange/pack.py", ("_bind",)),
    ):
        home = lint_invariants.SRC / rel
        for name in names:
            renamed = src.replace("def _bind", f"def {name}")
            assert len(lint_invariants.check_copy_tier(home, ast.parse(renamed))) == 3
    # ... and the rule is about the communication layers only.
    elsewhere = lint_invariants.SRC / "stencil" / "synthetic.py"
    assert lint_invariants.check_copy_tier(elsewhere, ast.parse(src)) == []


def test_lint_file_on_real_sources():
    # Spot-check two real files through the full per-file path.
    for rel in (
        "simmpi/fabric.py", "exchange/envelope.py", "check/schedule.py",
        "core/geometry.py", "core/driver.py", "core/runplan.py",
        "exchange/costs.py", "exchange/boxes.py",
    ):
        assert lint_invariants.lint_file(lint_invariants.SRC / rel) == []


def test_backticked_doc_path_must_exist():
    doc = lint_invariants.REPO / "DESIGN.md"
    text = (
        "| FIG12 | `benchmarks/test_k2_decomposition.py` |\n"
        "see `tests/test_paper_claims.py::test_claim` and"
        " `.github/workflows/ci.yml:334-337`,\n"
        "`benchmarks/test_measured_*.py`, `benchmarks/results/<id>.txt`,\n"
        "`core/runplan.py` (a module path) and `tests/gone_*.py`\n"
    )
    violations = lint_invariants.check_doc_paths(doc, text)
    assert [(v[1], v[2].split("`")[1]) for v in violations] == [
        (1, "benchmarks/test_k2_decomposition.py"),
        (4, "tests/gone_*.py"),
    ]
    assert "does not exist" in violations[0][2]
