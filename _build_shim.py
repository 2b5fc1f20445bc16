"""Minimal in-tree PEP 517/660 build backend.

This environment is offline and lacks the ``wheel`` package, so the stock
setuptools backend cannot produce (editable) wheels.  Wheels are just zip
files with a dist-info directory, so this shim builds them directly:

* ``build_editable`` emits a wheel containing a ``.pth`` file pointing at
  ``src/`` -- a classic path-based editable install.
* ``build_wheel`` emits a regular wheel by zipping ``src/repro``.

Only what pip needs for this project is implemented.
"""

from __future__ import annotations

import base64
import hashlib
import os
import zipfile

NAME = "repro"
VERSION = "1.0.0"
TAG = "py3-none-any"
DIST = f"{NAME}-{VERSION}"

# Extras must stay in sync with [project.optional-dependencies] in
# pyproject.toml; without the Provides-Extra lines pip would silently
# resolve `repro[test]` to the bare package.
_METADATA = f"""\
Metadata-Version: 2.1
Name: {NAME}
Version: {VERSION}
Summary: Pack-free ghost-zone exchange via data-layout optimization (PPoPP'21 reproduction)
Requires-Python: >=3.9
Requires-Dist: numpy>=1.21
Requires-Dist: cffi
Provides-Extra: test
Requires-Dist: pytest; extra == "test"
Requires-Dist: pytest-benchmark; extra == "test"
Requires-Dist: hypothesis; extra == "test"
Provides-Extra: cov
Requires-Dist: pytest-cov; extra == "cov"
Provides-Extra: lint
Requires-Dist: ruff; extra == "lint"
"""

_WHEEL = f"""\
Wheel-Version: 1.0
Generator: _build_shim
Root-Is-Purelib: true
Tag: {TAG}
"""


def _record_line(name: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
    return f"{name},sha256={digest.decode()},{len(data)}"


def _write_wheel(path: str, files: dict) -> None:
    record_name = f"{DIST}.dist-info/RECORD"
    lines = [_record_line(n, d) for n, d in files.items()]
    lines.append(f"{record_name},,")
    files[record_name] = ("\n".join(lines) + "\n").encode()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in files.items():
            zf.writestr(name, data)


def _dist_info_files() -> dict:
    return {
        f"{DIST}.dist-info/METADATA": _METADATA.encode(),
        f"{DIST}.dist-info/WHEEL": _WHEEL.encode(),
    }


# ---------------------------------------------------------------------------
# PEP 517 hooks
# ---------------------------------------------------------------------------

def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "src"))
    files = {f"_{NAME}_editable.pth": (src + "\n").encode()}
    files.update(_dist_info_files())
    name = f"{DIST}-{TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, name), files)
    return name


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "src"))
    files = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, "rb") as fh:
                files[rel] = fh.read()
    files.update(_dist_info_files())
    name = f"{DIST}-{TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, name), files)
    return name


def build_sdist(sdist_directory, config_settings=None):  # pragma: no cover
    raise NotImplementedError("sdists are not needed in this environment")


def prepare_metadata_for_build_wheel(metadata_directory, config_settings=None):
    dist_info = os.path.join(metadata_directory, f"{DIST}.dist-info")
    os.makedirs(dist_info, exist_ok=True)
    for name, data in _dist_info_files().items():
        with open(os.path.join(metadata_directory, name), "wb") as fh:
            fh.write(data)
    return f"{DIST}.dist-info"


prepare_metadata_for_build_editable = prepare_metadata_for_build_wheel
