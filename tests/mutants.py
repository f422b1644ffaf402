"""Mutant register: small biases in the error law that the law tests must
catch without the byte-pinned digests.

Each mutant is a (file, old, new) triple; ``old`` occurs exactly once in
``file``. The script copies ``src``, ``tests`` and ``pyproject.toml`` to a
temporary directory and runs the law-test modules there, first unmutated,
where they must pass, then once per mutant, where at least one test must
fail. ``TestGoldenDigests`` and ``TestFullChainOracle`` are deselected for
these runs: a digest catches any change, and the oracle replays the
engine's own slot channel, so neither shows that a law test would.

Run from anywhere, as ``python tests/mutants.py``; it exits 1 if a mutant
survives or the unmutated run fails. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LAW_TESTS = [
    "tests/test_engine.py",
    "tests/test_channel.py",
    "tests/test_modem.py",
    "tests/test_acceptance.py",
]
DESELECTED = [
    "tests/test_engine.py::TestGoldenDigests",
    "tests/test_engine.py::TestFullChainOracle",
]

ENGINE = "src/uwoclink/engine.py"
CHANNEL = "src/uwoclink/channel.py"
MODEM = "src/uwoclink/modem.py"

# (name, file, old, new)
MUTANTS = [
    ("slot sigma x 1.01", ENGINE,
     "sigma = 1.0 / max(snr, 1e-9)", "sigma = 1.01 / max(snr, 1e-9)"),
    ("slot sigma / 1.01", ENGINE,
     "sigma = 1.0 / max(snr, 1e-9)", "sigma = 1.0 / 1.01 / max(snr, 1e-9)"),
    ("margin_to_snr exponent / 20.2", ENGINE,
     "10.0 ** ((margin_db + snr_offset_db) / 20.0)",
     "10.0 ** ((margin_db + snr_offset_db) / 20.2)"),
    ("fading sigma x 1.05", CHANNEL,
     "rng.normal(0.0, fading.sigma_db)", "rng.normal(0.0, 1.05 * fading.sigma_db)"),
    ("burst probability x 0.8", CHANNEL,
     "rng.random() < fading.burst_probability",
     "rng.random() < 0.8 * fading.burst_probability"),
    ("injected BER x 1.02", ENGINE,
     "rng.binomial(n, ber)", "rng.binomial(n, 1.02 * ber)"),
    ("sparse hit share x 0.99", MODEM,
     "q = 2.0 * qfunc(tau)", "q = 1.98 * qfunc(tau)"),
    ("miscorrected frame not lost", ENGINE,
     "np.count_nonzero(outcome.failed | wrong.any(axis=1))",
     "np.count_nonzero(outcome.failed)"),
]


def run_law_tests(root: Path, first_failure: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *LAW_TESTS]
    for node in DESELECTED:
        cmd += ["--deselect", node]
    if first_failure:
        cmd.append("-x")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)


def failed_tests(run: subprocess.CompletedProcess) -> list[str]:
    return [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(REPO / name, root / name, ignore=ignore)
        shutil.copy2(REPO / "pyproject.toml", root / "pyproject.toml")

        for name, path, old, _ in MUTANTS:
            count = (root / path).read_text(encoding="utf-8").count(old)
            if count != 1:
                print(f"register error: {name}: {old!r} occurs {count} times in {path}")
                return 1

        start = time.perf_counter()
        baseline = run_law_tests(root, first_failure=False)
        print(f"unmutated: exit {baseline.returncode} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
        if baseline.returncode != 0:
            print(baseline.stdout[-4000:] + baseline.stderr[-4000:])
            return 1

        survivors = []
        for name, path, old, new in MUTANTS:
            target = root / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            try:
                run = run_law_tests(root, first_failure=True)
            finally:
                target.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test failed; 2 or more is a broken run
            if run.returncode == 1:
                verdict = "killed by " + ", ".join(failed_tests(run))
            else:
                verdict = f"SURVIVED (exit {run.returncode})"
                survivors.append(name)
            print(f"{name}: {verdict} ({time.perf_counter() - start:.0f} s)", flush=True)

    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
