"""Golden hashes of the README recipe "Checking that a change keeps the bits".

Each case trains one of the three benchmark configs at one seed through
``cli.main`` and compares the sha256 of the run's ``config_resolved.txt``,
``metrics.csv`` and ``checkpoint.csv`` with a pinned value.  It then runs
``export-maps`` on the run's checkpoint with one fixed image and compares
the sha256 of a manifest that lists every written file's name and sha256
(four stages, two stages, and the bypass run's records).  A change meant
to leave every number alone must pass unchanged; a change meant to move
numbers updates the pins and records the old and new hashes, with the
reason, in CHANGES.md.

The pins hold for numpy 2.4.6 with OpenBLAS on x86-64, on the kernel set
named by ``PINNED_KERNELS``: numpy's enabled SIMD dispatch targets and
OpenBLAS's core name.  Another kernel set rounds ``np.exp``, ``np.log`` or
a matmul differently and moves ``metrics.csv`` and ``checkpoint.csv``
without any change to the program, so on another identity one test fails
with a message naming both identities, and the recipe runs are skipped
rather than failing on six bare hash mismatches.
"""

import ctypes
import hashlib
import os

import numpy as np
import pytest

from sfinet import cli
from sfinet import config as C
from sfinet.serialization import save_tensor

AMBIGUOUS_PAIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                              "configs", "ambiguous-pair.txt")

RUNS = {
    "default": ["--preset", "default", "--set", "train.epochs=2"],
    "bypass": ["--config", AMBIGUOUS_PAIR, "--set", "model.bypass_filters=true",
               "--set", "train.epochs=2"],
    "tiny": ["--preset", "tiny"],
}

FILES = ("config_resolved.txt", "metrics.csv", "checkpoint.csv")

# (run, seed) -> sha256 of FILES, in order
PINS = {
    ("default", 7): ("9a59186661e51a6a642b12ebc246da28e20037a9fd42cbdb7018d94c70e7ac2a",
                     "0b52ef597235c239b4d0d7250c64e66c91ee21e8d099903ad92ea1928938a5be",
                     "3930b266a92d7a1dc5766954d01c1be8601e954c93e95d18845e13f6b1929f0a"),
    ("bypass", 7): ("8072500bbf9987b114639b4bfb592d040ffdfb4bfa6a02fb611e485c94876ed5",
                    "160a3e70f084eb52a7b82c033a7fac931e797d1be08d4911ae06f46bf9389a7e",
                    "bfa2cc07eb0a382bbd76140987dc2390d07fd6a6dd50c99709491027919e131b"),
    ("tiny", 7): ("a7ca044d34134815a5a292c181e68c63faacddd00a644162c11c07fd5434d775",
                  "163fbe3683502155f5472e2c4b8a8993a80a3d7e8bb327addda309522c19ccf3",
                  "458e9973af0e0cb80d792daa24e06cab375da61c606a8320182dceda5508e891"),
    ("default", 11): ("993b5fb30977ac40b5c47349ad8679195e332dda074f9da523d523f7922fca9b",
                      "256ae2051f32c6fe2089243fd4ed7c2f918d7d14921c38a97e1c577b7bfbdaaf",
                      "617bb68f0dc9d67efd5cd7fe803f45baf092795a2778d1e251d0bbbd1d85315a"),
    ("bypass", 11): ("c99f2333d2b574ac0e60e228849bbe86f5e00ee70259cade78989554bf25a2a2",
                     "9197bab904fd2ee0ff4ca91e0c32ce3510deac024c13a8f68c46fa5974f9050a",
                     "690055b69bcb933bf0edde0ae0a10c60da86b84ed1aad9492036c52dea203fd5"),
    ("tiny", 11): ("f084a549f3b35347d114a61e2d29e1b0df5b2a7086e8ddf3348580acc615e785",
                   "0ea8824b488e7c79f28d4ba3ab50fb7104fa95d75fbd5fb2d3f2438239786768",
                   "2f9579fe2e56ffe206a58c398d9c563cf0a92a56d86e5573c8c3838cf099c16e"),
}

# (run, seed) -> sha256 of the export manifest, one "name sha256" line per file in name order
EXPORT_PINS = {
    ("default", 7): "ec28c11d207d134f988ee2750803fef3e47741c9da6127ee83c3af65bc4ebfb3",
    ("bypass", 7): "eccf334bbe53fd7f425411ee2063082423fb8cab199903018721e2fefe8a1636",
    ("tiny", 7): "a7f7ce04796c0a12c7c531ec882f08a3e3674a113a7b1060b63a9d0282e5d68a",
    ("default", 11): "ec2504c67af18fd86353a96ab16e3040d4ac62f28118a2c6ecd88055f39f7f68",
    ("bypass", 11): "59cfc3eecb7fe7507fc5cf1f19a6b929c9f0d758cc0c1f19bf28063cc2abb6db",
    ("tiny", 11): "6b326c6c60715dae4b58aee99f6161577e427b0cf433fe13e91509eb47f0ea63",
}


# the kernel identity the pins above were recorded on, as kernel_identity() reads it
PINNED_KERNELS = "numpy SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR; OpenBLAS SkylakeX"


def numpy_simd() -> str:
    """numpy's SIMD dispatch targets that this CPU and ``NPY_DISABLE_CPU_FEATURES`` leave enabled."""
    try:
        from numpy._core import _multiarray_umath as umath
        targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        return "unreadable"
    return " ".join(targets) or "none"


def openblas_core() -> str:
    """The core name of the OpenBLAS that numpy loaded, found through the process's mapped libraries."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return "unreadable"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unreadable"


def kernel_identity() -> str:
    return f"numpy SIMD {numpy_simd()}; OpenBLAS {openblas_core()}"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_pins_hold_for_this_kernel_set():
    identity = kernel_identity()
    assert identity == PINNED_KERNELS, (
        f"the golden pins were recorded on kernel set '{PINNED_KERNELS}' and cannot be "
        f"checked on this one, '{identity}'")


@pytest.mark.parametrize("run, seed", sorted(PINS), ids=[f"{r}-{s}" for r, s in sorted(PINS)])
def test_recipe_run_keeps_its_bits(tmp_path, monkeypatch, run, seed):
    if kernel_identity() != PINNED_KERNELS:
        pytest.skip("pinned on another kernel set: see test_the_pins_hold_for_this_kernel_set")
    monkeypatch.delenv("SFI_SEED", raising=False)
    out = tmp_path / f"{run}-{seed}"
    assert cli.main(["train", "--quiet", "--out", str(out), *RUNS[run],
                     "--set", f"train.seed={seed}"]) == 0
    got = tuple(sha256(out / name) for name in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, PINS[run, seed]))

    resolved = str(out / "config_resolved.txt")
    cfg = C.build_run_config(C.parse_config_file(resolved))
    image = np.random.default_rng(20261019).standard_normal(
        (*cfg.backbone.input_size, cfg.backbone.in_channels))
    save_tensor(str(tmp_path / "probe.csv"), image)
    maps = tmp_path / "maps"
    assert cli.main(["export-maps", "--config", resolved, "--checkpoint", str(out / "checkpoint.csv"),
                     "--image", str(tmp_path / "probe.csv"), "--out", str(maps)]) == 0
    manifest = "".join(f"{path.name} {sha256(path)}\n" for path in sorted(maps.iterdir()))
    assert hashlib.sha256(manifest.encode()).hexdigest() == EXPORT_PINS[run, seed], manifest
