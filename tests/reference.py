"""Inputs and helpers that more than one test module uses, each in one place.

The KTH15 parameter set and the channel box come from the benchmark's
``bench/workloads.py``, so the tests check the scenarios the benchmark runs, and
``scenario`` builds a scenario over them.  A test module imports shared inputs
from here (or the former renderer from ``svgplot_reference``), never from another
test module.
"""

import importlib.util
import math
import random
import sys
from itertools import product
from pathlib import Path

import numpy as np

from mcs_qkd import ChannelModel, ConstantF, DetectorModel, Scenario, TableF, rate_at

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    """The script at ``path``, run as module ``name``.

    The module is in ``sys.modules`` before it runs: the ``Op`` dataclass of
    ``bench/workloads.py`` looks its module up there while it is defined.
    """
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load(ROOT / "bench" / "workloads.py", "bench_workloads")
KTH15 = workloads.KTH15
#: The channel box that the benchmark's sweep workload draws from.
BOX = workloads.SWEEP_RANGES

TABLE = TableF(((0.0, 1.05), (0.03, 1.1), (0.08, 1.2), (0.2, 1.45), (0.5, 2.0)))


def scenario(family, distance_km=0.0, f_policy=ConstantF(1.16), literal=False, **channel):
    """A KTH15 scenario at ``distance_km``, with any key of ``BOX`` set in ``channel``."""
    values = {**KTH15, **channel}
    return Scenario(
        source_family=family,
        channel=ChannelModel(values["loss_coeff_a"], distance_km, 1.0, values["detector_eff"]),
        detector=DetectorModel(values["dark_prob_Pd"], values["baseline_error_c"]),
        f_policy=f_policy,
        paper_literal_sign=literal,
    )


def optimum_oracle(s, param_min=1e-5, param_max=4.0, points=20_001, width=1e-13):
    """(param, R_raw) of the best unclamped rate of ``s`` over the source parameter.

    A brute-force reference that shares no search code with ``optimizer``: ``rate_at``
    over a ``points``-point logarithmic grid over ``[param_min, param_max]``, then a
    scalar golden-section search in log param between the best grid point's neighbours,
    down to ``width``.  The answer is the best point evaluated (nan ranks lowest), so it
    is a value the rate reaches, also where its maximum is a kink or a jump.
    """
    def raw(param):
        value = float(rate_at(s, param).R_raw)
        return -math.inf if math.isnan(value) else value

    grid = np.geomspace(param_min, param_max, points)
    rates = rate_at(s, grid).R_raw
    i = int(np.argmax(np.where(np.isnan(rates), -np.inf, rates)))
    best = (float(grid[i]), raw(float(grid[i])))
    lo, hi = math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, points - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = raw(math.exp(c)), raw(math.exp(d))
    while hi - lo > width:
        best = max(best, (math.exp(c), fc), (math.exp(d), fd), key=lambda point: point[1])
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = raw(math.exp(c))
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = raw(math.exp(d))
    return best


def cutoff_oracle(s, l_max, points=2001, width=1e-6):
    """The distance in ``[0, l_max]`` where ``optimum_oracle``'s ``R_raw`` turns from positive
    to not, to within ``width`` km below it.

    A brute-force reference that shares no search code with ``optimizer``: plain bisection
    on the sign of the optimum over a ``points``-point oracle grid, from a secure 0 km to an
    insecure ``l_max``.  Returns the last distance it found secure.
    """
    lo, hi = 0.0, l_max
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if optimum_oracle(s.at_distance(mid), points=points)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def seeded_axes(seed=2024):
    """8 alphas, 6 nus and 6 etas, distinct and non-zero: the shape of the benchmark's
    oracle grids, drawn uniformly."""
    rng = random.Random(seed)
    return tuple(tuple(sorted(rng.uniform(lo, hi) for _ in range(count)))
                 for count, lo, hi in ((8, 0.05, 2.0), (6, 0.05, 0.8), (6, 0.05, 0.95)))


def seeded_grid(seed=2024):
    """The 8 x 6 x 6 (alpha, nu, eta) points of ``seeded_axes(seed)``."""
    return list(product(*seeded_axes(seed)))


def bits_equal(a, b):
    """Equal bit for bit: nan where nan, and the same sign bits (so -0.0 is not 0.0)."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def reference_fmt(value) -> str:
    """One CSV cell as the per-cell join wrote it: ``true``/``false``, ``%.17g`` or ``str``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def reference_csv(comments, header, rows) -> str:
    """A whole CSV text, joined cell by cell: ``# `` note lines, the header, then the rows."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(",".join(reference_fmt(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"
