"""Host speed, measured with fixed kernels that use no kktprecond code.

The benchmark runs on a shared host whose speed switches between two states,
for seconds to minutes at a time, and process CPU time moves with it (see
README.md). Before each op, and once after the last, the run times a kernel
``REPEATS`` times. An op's CPU time is divided by the host's speed around it:
the median of the kernel's times just before and just after the op, and once
after each SQP step inside it, over the kernel's ``REFERENCE_S``. The result
reads as CPU seconds on the reference host in its faster state, and moves
when the program changes, not when the host does.

The host slows each kind of work by a different factor. In its slower state,
on the reference host, a loop of tiny numpy solves took 1.70x as long, a
pure-Python loop 1.40x, sparse products 1.45x and a 300x300 LU 1.50x, while
``generate`` ops took 1.20-1.40x as long. So there are two kernels, each
made of the work it stands for:

- ``blocks``: a Python loop of 6x6 block solves and products, plus sparse
  products and small dense solves, like the block ILU and Jacobi sweeps,
  GMRES and coarse assembly of the solve workloads. Scaled by it, ``catalog``
  timings spread 0.04-0.05 over ten seeds; scaled by ``sqp``, 0.17-0.20.
- ``sqp``: interpreted Python, sparse products and dense LU, like the SQP
  loop, its dense step and the Matrix Market writes of ``generate`` and of
  every set-up. Scaled by it, ``generate`` timings spread 0.06-0.10 over five
  seeds; scaled by ``blocks``, 0.13-0.16.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse

# Median CPU seconds of each kernel on the reference host: a 2-vCPU KVM guest,
# Intel Xeon with AVX-512, Python 3.11, numpy 2.4, scipy 1.17, one OpenBLAS
# thread, in its faster state.
REFERENCE_S = {"blocks": 0.0056, "sqp": 0.0064}
REPEATS = 5

_rng = np.random.default_rng(20240228)
_blocks = _rng.standard_normal((64, 6, 6)) + 6.0 * np.eye(6)
_rhs = _rng.standard_normal((64, 6))
_sparse = scipy.sparse.csr_matrix(
    (_rng.standard_normal(27000), (np.repeat(np.arange(3000), 9), _rng.integers(0, 3000, 27000))),
    shape=(3000, 3000),
)
_vec = _rng.standard_normal(3000)
_small_lu = scipy.linalg.lu_factor(_rng.standard_normal((120, 120)) + 120.0 * np.eye(120))
_dense = _rng.standard_normal((300, 300)) + 300.0 * np.eye(300)


def _blocks_kernel() -> float:
    acc = 0.0
    for _ in range(6):
        for i in range(64):
            y = np.linalg.solve(_blocks[i], _rhs[i])
            acc += float(_blocks[i - 1] @ y @ _rhs[i - 1])
    x = _vec
    for _ in range(40):
        x = _sparse @ x
        x /= np.linalg.norm(x)
        acc += float(scipy.linalg.lu_solve(_small_lu, x[:120]).sum())
    return acc


def _sqp_kernel() -> float:
    """About 2 ms each of interpreted Python, sparse products and dense LU."""
    acc = 0
    for i in range(28000):
        acc += i * i
    x = _vec
    for _ in range(60):
        x = _sparse @ x
        x /= np.linalg.norm(x)
    for _ in range(2):
        lu, _piv = scipy.linalg.lu_factor(_dense)
    return acc + float(x[0] + lu[0, 0])


KERNELS = {"blocks": _blocks_kernel, "sqp": _sqp_kernel}


def measure(kernel: str, repeats: int = REPEATS) -> list[float]:
    """CPU seconds of `repeats` runs of the named kernel."""
    run = KERNELS[kernel]
    times = []
    for _ in range(repeats):
        start = time.process_time()
        run()
        times.append(time.process_time() - start)
    return times


def to_reference(cpu_s: float, samples: list[float], kernel: str) -> float:
    """CPU seconds taken while the kernel ran in `samples`, as CPU seconds on the reference host."""
    return cpu_s * REFERENCE_S[kernel] / statistics.median(samples)
