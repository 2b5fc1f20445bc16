"""The C tier compiles once per host: every unit that builds is published
to ``$XDG_CACHE_HOME/repro/kernels/<key>.so`` and later processes load
it.  The key separates whatever decides the binary, an entry that fails
its digest is rebuilt and never loaded, a cache directory that is not
the user's own is refused and reported, and concurrent builders of one
key leave one whole file.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.stencil import cbackend
from repro.stencil.kernels import apply_array_stencil
from repro.stencil.spec import SEVEN_POINT

ROOT = Path(__file__).resolve().parent.parent

#: One process: a brick run (its kernel's unit carries the movers) and an
#: array run -- two units -- and what it built, loaded and computed.
PROCESS = """
import hashlib, json
from repro.core.driver import run_executed
from repro.core.problem import StencilProblem
from repro.stencil import cbackend
from repro.stencil.spec import SEVEN_POINT

builds = []
real_run = cbackend.subprocess.run

def run(cmd, *args, **kw):
    if "-###" not in cmd:
        builds.append(cmd)
    return real_run(cmd, *args, **kw)

cbackend.subprocess.run = run
problem = StencilProblem((16, 16, 16), (1, 1, 1), SEVEN_POINT, (8, 8, 8), 8)
digest = hashlib.sha256()
for method in ("layout", "yask"):
    digest.update(run_executed(problem, method, timesteps=2).global_result.tobytes())
print(json.dumps({
    "state": cbackend.cache_state(),
    "builds": len(builds),
    "build_dirs": cbackend._build_dirs,
    "refused": bool(cbackend.kernel_flags()[1]),
    "digest": digest.hexdigest(),
}))
"""


def _process(cache_home) -> dict:
    env = {
        **os.environ,
        "XDG_CACHE_HOME": str(cache_home),
        "PYTHONPATH": str(ROOT / "src"),
    }
    done = subprocess.run(
        [sys.executable, "-c", PROCESS],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _entries(cache_dir) -> list:
    return sorted(Path(cache_dir).iterdir())


def test_a_second_process_runs_no_compiler(tmp_path):
    cold = _process(tmp_path)
    warm = _process(tmp_path)
    kernels = str(tmp_path / "repro" / "kernels")
    assert cold["state"] == {"built": 2, "loaded": 0, "dir": kernels, "off": ""}
    assert warm["state"] == {"built": 0, "loaded": 2, "dir": kernels, "off": ""}
    # Where the compiler refuses the host flags, each process still asks
    # once (refusals are never stored) before it goes portable.
    assert cold["builds"] == 2 + cold["refused"]
    assert warm["builds"] == 0 + warm["refused"]
    assert warm["digest"] == cold["digest"]
    # Every build directory went with its build: only the entries remain.
    assert cold["build_dirs"] == warm["build_dirs"] == []
    assert [p.suffix for p in _entries(kernels)] == [".so", ".so"]
    assert oct(os.stat(kernels).st_mode & 0o777) == "0o700"


def test_a_damaged_entry_is_rebuilt_never_loaded(tmp_path):
    cold = _process(tmp_path)
    truncated, flipped = _entries(tmp_path / "repro" / "kernels")
    blob = truncated.read_bytes()
    truncated.write_bytes(blob[: len(blob) // 2])
    blob = bytearray(flipped.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    flipped.write_bytes(bytes(blob))
    assert not cbackend._whole(str(truncated))
    assert not cbackend._whole(str(flipped))
    again = _process(tmp_path)
    assert again["state"]["built"] == 2 and again["state"]["loaded"] == 0
    assert again["builds"] == 2 + again["refused"]
    assert again["digest"] == cold["digest"]
    assert _entries(tmp_path / "repro" / "kernels") == [truncated, flipped]
    assert cbackend._whole(str(truncated)) and cbackend._whole(str(flipped))


@pytest.fixture
def unit(monkeypatch, empty_kernel_cache):
    """``build(source, extra_flags=())`` of an array-box unit in this
    process over an empty cache, with the movers already resolved (no
    unit carries them) and the counts at zero; returns ``(build, the
    cache directory)``."""
    monkeypatch.setattr(cbackend, "_mover_libs", dict(cbackend._mover_libs))
    cbackend._load_movers((), False)
    shutil.rmtree(empty_kernel_cache.parent.parent, ignore_errors=True)
    monkeypatch.setattr(
        cbackend, "_cache_state", {"built": 0, "loaded": 0, "dir": "", "off": ""}
    )
    return cbackend._build_array, empty_kernel_cache


def _source(n: int = 6) -> str:
    return cbackend.array_step_source(SEVEN_POINT.taps, (n, n, n))


def _computes(step, n: int = 6) -> None:
    """*step* sweeps the 7-point stencil bit-for-bit as the generic
    kernel does over an ``n^3`` array with a one-cell ghost shell."""
    arr = np.random.default_rng(n).random((n, n, n))
    out, ref = np.zeros_like(arr), np.zeros_like(arr)
    step(arr, out, np.array([[[1, n - 1]] * 3], dtype=np.int64))
    apply_array_stencil(arr, ref, SEVEN_POINT, (n - 2,) * 3, 1)
    assert out.tobytes() == ref.tobytes()


def test_each_key_input_separates_entries(unit, monkeypatch):
    build, cache = unit
    counts = []
    # The compiler's real account names every flag it was given, so it
    # stands still here: each input below must separate entries alone.
    account = "one compiler, one CPU"
    monkeypatch.setattr(cbackend, "_target", lambda cc, flags: account)

    def entries_after(n=6, extra_flags=()):
        _computes(build(_source(n), extra_flags=extra_flags), n)
        counts.append(len(_entries(cache)))

    entries_after()
    entries_after()  # the same unit: loaded, no new entry
    assert cbackend.cache_state()["loaded"] == 1
    # The C text: the same stencil on another shape.
    entries_after(n=7)
    # The sanitize flags.
    monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
    entries_after(extra_flags=cbackend.sanitize_flags())
    monkeypatch.delenv("REPRO_CC_SANITIZE")
    # The optimisation flags: a process whose compiler refused the host
    # flags builds with the portable ones.
    monkeypatch.setattr(cbackend, "_flags_refusal", "refused for this test")
    entries_after()
    monkeypatch.setattr(cbackend, "_flags_refusal", "")
    # The compiler's own account of its target.
    account = "one compiler, another CPU"
    entries_after()
    assert counts == [1, 1, 2, 3, 4, 5]
    assert cbackend.cache_state()["built"] == 5
    assert cbackend._build_dirs == []
    assert all(p.suffix == ".so" for p in _entries(cache))


def test_a_hit_takes_the_host_flags_as_a_build_would(unit, monkeypatch):
    build, _ = unit
    build(_source())
    if cbackend.kernel_flags()[1]:
        pytest.skip("this compiler refuses the host flags")
    monkeypatch.setattr(cbackend, "_flags_refusal", None)
    _computes(build(_source()))
    assert cbackend.cache_state()["loaded"] == 1
    assert cbackend.kernel_flags() == (cbackend._HOST_FLAGS, "")


def test_the_compiler_account_depends_on_the_flags():
    cc = cbackend._compiler()
    host = cbackend._target(cc, cbackend._HOST_FLAGS)
    assert host == cbackend._target(cc, cbackend._HOST_FLAGS)
    assert host != cbackend._target(cc, cbackend._PORTABLE_FLAGS)


def test_a_relative_xdg_cache_home_is_ignored(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert cbackend._cache_dir() == (str(tmp_path / ".cache/repro/kernels"), "")


@pytest.mark.parametrize("unsafe", ["group-writable", "not-owned", "not-creatable"])
def test_an_unsafe_directory_is_refused_and_reported(unit, monkeypatch, unsafe):
    build, cache = unit
    if unsafe == "not-creatable":
        cache.parent.parent.write_text("a file where the cache would go")
        why = "cannot create"
    else:
        cache.mkdir(parents=True)
        if unsafe == "group-writable":
            cache.chmod(0o777)
            why = "writable by group or others"
        else:
            owner = cache.stat().st_uid
            monkeypatch.setattr(cbackend.os, "getuid", lambda: owner + 1)
            why = "not owned by this user"
    _computes(build(_source()))
    state = cbackend.cache_state()
    assert why in state["off"] and state["built"] == 1
    assert cbackend.cache_line() == f"off ({state['off']})"
    assert cbackend._build_dirs == []
    if unsafe != "not-creatable":
        assert _entries(cache) == []


def test_concurrent_builders_of_one_key_publish_one_loadable_file(
    unit, monkeypatch
):
    """More builders than cores, all past the cache lookup before any
    compiles (and switching threads often): each loads a working kernel,
    every build is counted, and one whole entry is left."""
    build, cache = unit
    builders = 4
    all_missed = threading.Barrier(builders, timeout=60)
    real = cbackend._compile

    def compile_together(cmd):
        all_missed.wait()
        return real(cmd)

    monkeypatch.setattr(cbackend, "_compile", compile_together)
    steps, errors = [], []

    def builder():
        try:
            steps.append(build(_source()))
        except Exception as err:  # surfaced by the assert below
            errors.append(err)

    threads = [threading.Thread(target=builder) for _ in range(builders)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and len(steps) == builders
    assert cbackend.cache_state()["built"] == builders
    assert cbackend._build_dirs == []
    (entry,) = _entries(cache)
    assert cbackend._whole(str(entry))
    for step in steps:
        _computes(step)
    monkeypatch.setattr(cbackend, "_compile", real)
    _computes(build(_source()))
    assert cbackend.cache_state()["loaded"] == 1


def test_the_run_reports_its_cache_state(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(cache_home):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--steps", "1",
             "--domain", "16", "16", "16", "--ranks", "1", "1", "1"],
            env={**env, "XDG_CACHE_HOME": str(cache_home)},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "bit-exact vs serial reference: True" in done.stdout
        (line,) = [
            ln for ln in done.stdout.splitlines() if ln.startswith("kernel cache:")
        ]
        return line

    cold, warm = run(tmp_path / "home"), run(tmp_path / "home")
    assert cold.startswith("kernel cache: 1 built, 0 loaded (")
    assert warm.startswith("kernel cache: 0 built, 1 loaded (")
    assert cold.endswith("/home/repro/kernels)") and warm.endswith(cold[-30:])
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert run(blocker).startswith(
        f"kernel cache: off (cannot create {blocker}/repro/kernels:"
    )
