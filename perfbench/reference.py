"""Reference figures for the README: machine facts, the dense cosine
transform against an FFT, and the sweep's row pool against one row at a time.

    python3 perfbench/reference.py

BLAS runs one thread, as in the benchmark.  Each timing is the median of
several repeats; the transforms are timed in-process with timeit.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from dengue_rd import Domain, to_modal  # noqa: E402
from dengue_rd.cli import load_sweep, run_sweep  # noqa: E402


def _median_us(fn, number: int, repeat: int = 7) -> float:
    return statistics.median(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def dct_by_fft(f: np.ndarray) -> np.ndarray:
    """to_modal with all modes kept, through rfft of the even extension."""
    m = f.shape[0] - 1
    spectrum = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real
    spectrum[1:-1] *= 2.0
    return spectrum / (2 * m)


def crossover() -> None:
    print("dense to_modal against rfft of the even extension (median us per call)")
    rng = np.random.default_rng(0)
    for n in (48, 256, 512, 1024):
        domain = Domain(L=1.0, n=n)
        f = rng.standard_normal(n)
        to_modal(f, domain)  # builds the cached transform matrices
        err = np.abs(dct_by_fft(f) - to_modal(f, domain)).max()
        number = max(10, 20000 // n)
        dense = _median_us(lambda: to_modal(f, domain), number)
        fft = _median_us(lambda: dct_by_fft(f), number)
        print(f"  n={n:5d}: dense {dense:9.2f}  fft {fft:7.2f}  max |diff| {err:.1e}")


def sweep_pool() -> None:
    spec = load_sweep(workloads.build("sweep-rows", 1).document)
    print(f"sweep-rows seed 1 ({len(spec.values)} rows): wall seconds, median of 3")
    for label, workers in (("one row at a time", 1), ("default pool", None)):
        walls = []
        for _ in range(3):
            start = time.perf_counter()
            run_sweep(spec, seed=1, max_workers=workers)
            walls.append(time.perf_counter() - start)
        print(f"  {label}: {statistics.median(walls):.3f}")


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}")
    print(f"BLAS {blas.get('name')} {blas.get('version')}, OPENBLAS_NUM_THREADS=1")
    crossover()
    sweep_pool()


if __name__ == "__main__":
    main()
