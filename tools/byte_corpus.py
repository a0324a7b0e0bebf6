"""Byte-identity corpus: run the same CLI calls against two source trees and compare them.

    python3 tools/byte_corpus.py PARENT_TREE CHANGE_TREE [--seed N] [--change-env NAME=VALUE]

Each tree is a checkout with ``src/mcs_qkd``.  Every CLI case runs as
``python -m mcs_qkd ARGV`` in a fresh directory that holds only the case's
input files, once per tree, with ``PYTHONPATH`` set to that tree's ``src``.
A case matches when the exit code, stdout, stderr and the bytes of every
CSV and SVG file written under the directory are the same for both trees.
Each CSV that differs, a file or ``rate``'s stdout, is also reported column by
column: the row counts of both trees, and per column how many cells differ and
the worst relative difference between them (see ``column_diffs``).

Each ``--change-env`` sets one more environment variable for the change
tree's runs only.  Given one tree twice, it shows how far the outputs move
with the environment alone, such as numpy's SIMD dispatch level:

    python3 tools/byte_corpus.py TREE TREE \\
        --change-env "NPY_DISABLE_CPU_FEATURES=AVX512_ICL AVX512_SPR X86_V4"

The corpus covers every command's normal runs, its configuration and I/O
errors, argparse errors and ``--help``, plus every op of the benchmark's
``sweep``, ``scan`` and ``oracle`` pools at ``--seed`` (inputs made by the
``bench/workloads.py`` next to this script).  Library cases run
``python -c LIBRARY_SCRIPT NU``: one line per scalar function, protocol, state
and efficiency at that ``nu``, holding the ``repr`` of the value or the type
name of the exception.  The tool prints one line per case that differs (and,
for a library case, each line of it that differs) and a summary, and exits 0
only when every case matches.  A pure refactor should leave every case matching.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAST_FIGURE2 = "grid_points = 60\nl_step_km = 5\nl_max_km = 30\n"
F_TABLE = "e,f\n0,1.05\n0.05,1.2\n0.1,1.3\n"
TIMEOUT_S = 120


def _case(name, argv, cfg=None, table=None, blocked=None):
    """A case: its name, its CLI arguments, and the input files it finds in its directory.

    ``cfg`` is the text of ``c.cfg``, ``table`` that of the f(e) table ``f.csv`` and
    ``blocked`` that of a file named ``blocked``, each written only when given.
    """
    files = {"c.cfg": cfg, "f.csv": table, "blocked": blocked}
    given = {path: text for path, text in files.items() if text is not None}
    return name, tuple(argv.split()), given


CASES = [
    # rate
    _case("rate single point", "rate --family coherent-bb84 --alpha2 0.1 --l 5"),
    _case("rate several points", "rate --family mcs-sarg04 --nu 0.1 --nu 0.3 --l 5 --l 20 --l 60"),
    _case("rate config only", "rate --config c.cfg",
          cfg="family = mcs-bb84\nnu = 0.25\ndistance_km = 12\n"),
    _case("rate flags over the file",
          "rate --config c.cfg --family coherent-bb84 --alpha2 0.2 --l 3",
          cfg="family = mcs-bb84\nnu = 0.25\ndistance_km = 12\n"),
    _case("rate missing family", "rate --alpha2 0.1"),
    _case("rate missing nu", "rate --family mcs-bb84 --l 5"),
    _case("rate missing alpha2", "rate --family coherent-bb84 --l 5"),
    _case("rate nu for coherent", "rate --family coherent-bb84 --nu 0.3"),
    _case("rate alpha2 for mcs", "rate --family mcs-bb84 --alpha2 0.3"),
    _case("rate unknown family in file", "rate --config c.cfg",
          cfg="family = bogus\nalpha2 = 0.1\n"),
    _case("rate unknown family flag", "rate --family bogus --alpha2 0.1"),
    _case("rate const policy", "rate --family mcs-bb84 --nu 0.2 --f-policy const:1.0"),
    _case("rate table policy", "rate --family mcs-bb84 --nu 0.2 --f-policy table:f.csv",
          table=F_TABLE),
    _case("rate table descending e", "rate --family mcs-bb84 --nu 0.2 --f-policy table:f.csv",
          table="0.1,1.2\n0.0,1.1\n"),
    _case("rate table 3-column row", "rate --family mcs-bb84 --nu 0.2 --f-policy table:f.csv",
          table="e,f\n0,1.05,7\n"),
    _case("rate table non-numeric row", "rate --family mcs-bb84 --nu 0.2 --f-policy table:f.csv",
          table="e,f\n0,abc\n"),
    _case("rate empty table", "rate --family mcs-bb84 --nu 0.2 --f-policy table:f.csv",
          table="e,f\n"),
    _case("rate missing table", "rate --family mcs-bb84 --nu 0.2 --f-policy table:nope.csv"),
    _case("rate bad const", "rate --family mcs-bb84 --nu 0.2 --f-policy const:abc"),
    _case("rate bad policy spec", "rate --family mcs-bb84 --nu 0.2 --f-policy linear:3"),
    _case("rate f_policy in file", "rate --config c.cfg --family mcs-bb84 --nu 0.2",
          cfg="f_policy = const:1.3\n"),
    _case("rate f_policy flag over file",
          "rate --config c.cfg --family mcs-bb84 --nu 0.2 --f-policy const:1.1",
          cfg="f_policy = const:1.3\n"),
    _case("rate literal sign in file", "rate --config c.cfg --family mcs-bb84 --nu 0.2",
          cfg="paper_literal_sign = true\n"),
    _case("rate literal sign flag", "rate --family mcs-sarg04 --nu 0.2 --paper-literal-sign"),
    _case("rate literal sign flag over false",
          "rate --config c.cfg --family mcs-bb84 --nu 0.2 --paper-literal-sign",
          cfg="paper_literal_sign = false\n"),
    _case("rate no detection events", "rate --config c.cfg --family mcs-bb84 --nu 0",
          cfg="dark_prob_Pd = 0\n"),
    _case("rate out-of-domain channel", "rate --config c.cfg --family mcs-bb84 --nu 0.1",
          cfg="baseline_error_c = 0.5\n"),
    _case("rate negative parameter", "rate --family mcs-bb84 --nu -0.1 --nu 0.2"),
    _case("rate parameter -1", "rate --family mcs-bb84 --nu -1"),
    _case("rate negative distance", "rate --family mcs-bb84 --nu 0.2 --l -1"),
    _case("rate nan distance", "rate --family mcs-bb84 --nu 0.2 --l nan"),
    _case("rate parameter at its bound", "rate --family mcs-sarg04 --nu 100 --l 5"),
    _case("rate mcs-bb84 at its bound", "rate --family mcs-bb84 --nu 100 --l 5"),
    _case("rate coherent at its bound", "rate --family coherent-bb84 --alpha2 100 --l 5"),
    _case("rate mcs-bb84 near zero", "rate --family mcs-bb84 --nu 1e-300 --l 5"),
    _case("rate coherent at the least float", "rate --family coherent-bb84 --alpha2 5e-324 --l 5"),
    _case("rate parameter above its bound", "rate --family mcs-sarg04 --nu 1e154 --l 5"),
    _case("global flags before the command",
          "--f-policy const:1.2 rate --family mcs-bb84 --nu 0.2"),
    # configuration errors
    _case("config unknown key", "verify --config c.cfg", cfg="darkness = 1\n"),
    _case("config malformed float", "rate --config c.cfg --family mcs-bb84 --nu 0.1",
          cfg="dark_prob_Pd = lots\n"),
    _case("config missing file", "verify --config nope.cfg"),
    _case("config line without =", "verify --config c.cfg", cfg="verify_alphas 1\n"),
    _case("config bad bool", "rate --config c.cfg --family mcs-bb84 --nu 0.1",
          cfg="paper_literal_sign = maybe\n"),
    _case("config empty list", "verify --config c.cfg", cfg="verify_alphas = ,\n"),
    _case("config non-integer int", "figure2 --config c.cfg", cfg="grid_points = 2.5\n"),
    _case("config negative loss coefficient", "rate --config c.cfg --family mcs-bb84 --nu 0.1",
          cfg="loss_coeff_a = -1\n"),
    _case("config nan receiver loss", "figure1 --config c.cfg", cfg="receiver_loss_L = nan\n"),
    _case("config negative verify nu", "verify --config c.cfg", cfg="verify_nus = -1\n"),
    _case("config inline note", "rate --config c.cfg --family mcs-bb84 --nu 0.1",
          cfg="loss_coeff_a = 0.2   # dB/km\n"),
    # figure1
    _case("figure1 default", "figure1"),
    _case("figure1 distance in file", "figure1 --config c.cfg", cfg="distance_km = 30\n"),
    _case("figure1 --l over file", "figure1 --config c.cfg --l 20", cfg="distance_km = 30\n"),
    _case("figure1 out_dir in file", "figure1 --config c.cfg", cfg="out_dir = res\n"),
    _case("figure1 --out over file", "figure1 --config c.cfg --out other",
          cfg="out_dir = res\n"),
    _case("figure1 literal sign", "figure1 --paper-literal-sign"),
    _case("figure1 table policy at 30 km", "figure1 --l 30 --f-policy table:f.csv", table=F_TABLE),
    _case("figure1 no dark counts", "figure1 --config c.cfg", cfg="dark_prob_Pd = 0\n"),
    _case("figure1 one point", "figure1 --config c.cfg", cfg="fig1_points = 1\n"),
    _case("figure1 zero range", "figure1 --config c.cfg", cfg="fig1_param_max = 0\n"),
    _case("figure1 infinite range", "figure1 --config c.cfg", cfg="fig1_param_max = inf\n"),
    _case("figure1 range above the parameter bound", "figure1 --config c.cfg",
          cfg="fig1_param_max = 150\n"),
    _case("figure1 range whose scan would overflow", "figure1 --config c.cfg",
          cfg="fig1_param_max = 1.7976931348623157e308\n"),
    _case("figure1 output path is a file", "figure1 --out blocked", blocked="a file\n"),
    _case("figure1 negative distance", "figure1 --l -5"),
    _case("figure1 distance underflows", "figure1 --l 20000"),
    # figure2
    _case("figure2 default", "figure2"),
    _case("figure2 fast", "figure2 --config c.cfg", cfg=FAST_FIGURE2),
    _case("figure2 flags over file", "figure2 --config c.cfg --l-max 20 --l-step 2.5",
          cfg=FAST_FIGURE2),
    _case("figure2 no cutoff in range", "figure2 --config c.cfg --l-max 10", cfg=FAST_FIGURE2),
    _case("figure2 zero range", "figure2 --config c.cfg", cfg="l_max_km = 0\n"),
    _case("figure2 negative step", "figure2 --l-step -1"),
    _case("figure2 nan range", "figure2 --config c.cfg", cfg="l_max_km = nan\n"),
    _case("figure2 nan step", "figure2 --config c.cfg", cfg="l_step_km = nan\n"),
    _case("figure2 infinite range", "figure2 --l-max inf"),
    _case("figure2 coarse resolution", "figure2 --config c.cfg",
          cfg=FAST_FIGURE2 + "cutoff_resolution_km = 2\n"),
    _case("figure2 nan resolution", "figure2 --config c.cfg",
          cfg=FAST_FIGURE2 + "cutoff_resolution_km = nan\n"),
    _case("figure2 table policy", "figure2 --config c.cfg --f-policy table:f.csv",
          cfg=FAST_FIGURE2, table=F_TABLE),
    _case("figure2 bad search range", "figure2 --config c.cfg",
          cfg="param_min = 1\nparam_max = 0.5\n"),
    _case("figure2 one grid point", "figure2 --config c.cfg", cfg="grid_points = 1\n"),
    _case("figure2 zero param_min", "figure2 --config c.cfg", cfg=FAST_FIGURE2 + "param_min = 0\n"),
    _case("figure2 zero rtol", "figure2 --config c.cfg", cfg=FAST_FIGURE2 + "golden_rtol = 0\n"),
    _case("figure2 zero resolution", "figure2 --config c.cfg",
          cfg=FAST_FIGURE2 + "cutoff_resolution_km = 0\n"),
    # 0 and 100 km only: two families are insecure at both, mcs-sarg04 has a cutoff
    _case("figure2 families never secure", "figure2 --config c.cfg",
          cfg="dark_prob_Pd = 0.015\nl_step_km = 100\n"),
    _case("figure2 literal sign at 0.5 km", "figure2 --paper-literal-sign --l-step 0.5"),
    # the three families searched in one pass: mixed outcomes, edge grids, partial blocks
    _case("figure2 one family never secure, one cutoff, one none in range",
          "figure2 --config c.cfg", cfg=FAST_FIGURE2 + "dark_prob_Pd = 0.002\n"),
    _case("figure2 no family reaches its cutoff", "figure2 --l-max 20 --l-step 0.5"),
    _case("figure2 literal sign with a table policy",
          "figure2 --config c.cfg --paper-literal-sign --f-policy table:f.csv",
          cfg=FAST_FIGURE2, table=F_TABLE),
    _case("figure2 two grid points", "figure2 --config c.cfg", cfg="grid_points = 2\n"),
    _case("figure2 2000 grid points", "figure2 --config c.cfg",
          cfg="grid_points = 2000\nl_step_km = 2\n"),
    _case("figure2 distances not a multiple of the block", "figure2 --config c.cfg",
          cfg="l_max_km = 37\nl_step_km = 0.7\n"),
    _case("figure2 distances not a multiple of a 32-row block", "figure2 --config c.cfg",
          cfg="grid_points = 150\nl_max_km = 90\nl_step_km = 1.3\n"),
    # the column edges: one row per family, and a range whose next step passes l_max
    _case("figure2 one distance", "figure2 --l-max 0.5 --l-step 1"),
    _case("figure2 range past l_max", "figure2 --l-max 10 --l-step 6"),
    # the two-level coarse pass: where its stride switches on (50 points), a window
    # clipped at the grid's top edge, the literal sign's full grid, and faint rows
    *(_case(f"figure2 {points} grid points", "figure2 --config c.cfg",
            cfg=f"grid_points = {points}\n") for points in (49, 50, 51)),
    _case("figure2 optima above param_max", "figure2 --config c.cfg",
          cfg="grid_points = 201\nparam_max = 0.01\nl_max_km = 30\n"),
    _case("figure2 literal sign at 200 points", "figure2 --paper-literal-sign"),
    _case("figure2 literal sign, two R_raw peaks within a stride",
          "figure2 --config c.cfg --paper-literal-sign --f-policy const:1.4 --l-step 0.5",
          cfg="loss_coeff_a = 0.16\ndetector_eff = 0.084\ndark_prob_Pd = 1.6e-4\n"
              "baseline_error_c = 0.006\nl_max_km = 60\n"),
    _case("figure2 no dark counts out to 2000 km", "figure2 --config c.cfg",
          cfg="dark_prob_Pd = 0\nl_max_km = 2000\nl_step_km = 4\n"),
    # cutoff rounds of more rows than one kernel call takes, which the two-level
    # pass answers; without dark counts the far cutoffs put faint rows in them
    _case("figure2 500 grid points", "figure2 --config c.cfg", cfg="grid_points = 500\n"),
    _case("figure2 2000 grid points, 1e-4 km cutoffs", "figure2 --config c.cfg",
          cfg="grid_points = 2000\ncutoff_resolution_km = 1e-4\n"),
    _case("figure2 no dark counts out to 2000 km at 500 points", "figure2 --config c.cfg",
          cfg="dark_prob_Pd = 0\nl_max_km = 2000\nl_step_km = 4\ngrid_points = 500\n"),
    # the refinement's row classes: faint rows that are not rough (Newton steps), and an
    # f(e) table at an rtol that every bracket starts narrower than (one section step)
    _case("figure2 faint rows with dark counts", "figure2 --config c.cfg",
          cfg="param_min = 1e-8\ndark_prob_Pd = 1e-7\nl_max_km = 250\n"),
    _case("figure2 table policy at rtol 0.5", "figure2 --config c.cfg --f-policy table:f.csv",
          cfg=FAST_FIGURE2 + "golden_rtol = 0.5\n", table=F_TABLE),
    # a span of about 1e600 multiples, whose exact ends no float product reaches
    _case("figure2 1e300 km range at a 1e-300 km resolution",
          "figure2 --config c.cfg --l-max 1e300 --l-step 1e298",
          cfg="cutoff_resolution_km = 1e-300\ngrid_points = 60\n"),
    _case("figure2 parameter bound", "figure2 --config c.cfg",
          cfg=FAST_FIGURE2 + "param_max = 100\n"),
    _case("figure2 above the parameter bound", "figure2 --config c.cfg",
          cfg=FAST_FIGURE2 + "param_max = 1e200\n"),
    # verify
    _case("verify default", "verify"),
    _case("verify small grid from file", "verify --config c.cfg",
          cfg="verify_alphas = 0.3, 1.5\nverify_nus = 0.2\nverify_etas = 0.4\n"),
    _case("verify flags over file", "verify --config c.cfg --fock-n-max 200 --quad-nodes 64",
          cfg="verify_alphas = 0.3\noracle_fock_n_max = 100\noracle_quad_nodes = 40\n"),
    _case("verify unresolved truncation", "verify --config c.cfg",
          cfg="verify_alphas = 6\noracle_fock_n_max = 16\n"),
    _case("verify fock order below bound", "verify --fock-n-max 4"),
    _case("verify nodes below bound", "verify --quad-nodes 8"),
    _case("verify eta above 1", "verify --config c.cfg", cfg="verify_etas = 1.5\n"),
    _case("verify signed zero nus", "verify --config c.cfg", cfg="verify_nus = 0, -0.0, 0.3\n"),
    _case("verify signed zero etas", "verify --config c.cfg", cfg="verify_etas = -0.0, 0.5, 1\n"),
    _case("verify signed zeros on both axes", "verify --config c.cfg",
          cfg="verify_nus = -0.0, 0\nverify_etas = 0, -0.0, 0.5\n"),
    _case("verify repeated alphas", "verify --config c.cfg", cfg="verify_alphas = 0.5, 0.5, 1\n"),
    _case("verify single alpha", "verify --config c.cfg", cfg="verify_alphas = 0.7\n"),
    _case("verify endpoint etas only", "verify --config c.cfg", cfg="verify_etas = 0, 1\n"),
    _case("verify duplicate etas", "verify --config c.cfg", cfg="verify_etas = 0.5, 0.5\n"),
    _case("verify twelve etas", "verify --config c.cfg",
          cfg="verify_etas = 0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 0.99, 1\n"),
    _case("verify fewest nodes", "verify --quad-nodes 32"),
    _case("verify most nodes", "verify --quad-nodes 256"),
    _case("verify endpoint etas with --quad-nodes 8", "verify --config c.cfg --quad-nodes 8",
          cfg="verify_etas = 0, 1\n"),
    _case("verify node count before a later bad alpha", "verify --config c.cfg --quad-nodes 8",
          cfg="verify_alphas = 0.5, -1\n"),
    _case("verify bad first alpha with --quad-nodes 8", "verify --config c.cfg --quad-nodes 8",
          cfg="verify_alphas = -1, 0.5\n"),
    _case("verify eta below 0", "verify --config c.cfg", cfg="verify_etas = -0.5\n"),
    # a repeated nu reuses its tuned source; the -0 and 0 nus keep their own rows and cells
    _case("verify repeated and signed-zero nus", "verify --config c.cfg",
          cfg="verify_nus = 0.3, 0.3, -0.0, 0\nverify_etas = 0, 0.5, 1\n"),
    # one value fills the alpha and eta cells of the same rows
    _case("verify one value as alpha and eta", "verify --config c.cfg",
          cfg="verify_alphas = 0.5\nverify_etas = 0.5\n"),
    # alpha**2 overflows, so the Fock amplitudes are NaN
    _case("verify alpha whose square overflows", "verify --config c.cfg",
          cfg="verify_alphas = 1e200\nverify_nus = 0.3\nverify_etas = 0.5\n"),
    # argparse
    _case("argparse bad choice", "rate --family nope --nu 0.1"),
    _case("argparse bad float", "rate --family mcs-bb84 --nu abc"),
    _case("argparse no command", ""),
    _case("help", "--help"),
    *(_case(f"help {command}", f"{command} --help")
      for command in ("rate", "figure1", "figure2", "verify")),
]


#: Squeezes of the library cases: 0, the least subnormal, 1e-8 to 100, and two values past
#: the CLI's parameter bound, where alpha**2 of one or both tuned sources overflows (at
#: 1e200 1 + nu**2 overflows too, so make_state raises).
LIBRARY_NUS = (0.0, 5e-324, 1e-8, 1e-4, 0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e154, 1e200)
LIBRARY_SCRIPT = """
import sys
from mcs_qkd import (Protocol, make_state, mcs_state, p_multi, p_multi_min, p_signal,
                     p_signal_mcs, p_vacuum_lossy)

def show(label, call):
    try:
        value = repr(call())
    except Exception as err:
        value = type(err).__name__
    print(f"{label}: {value}")

nu = float(sys.argv[1])
etas = (0.0, 0.1136, 0.5, 1.0)
for p in Protocol:
    show(f"mcs_state({nu!r}, {p.value}).alpha", lambda: mcs_state(nu, p).alpha)
    show(f"p_multi_min({nu!r}, {p.value})", lambda: p_multi_min(nu, p))
    show(f"p_multi(mcs_state({nu!r}, {p.value}))", lambda: p_multi(mcs_state(nu, p), p))
    for eta in etas:
        show(f"p_signal_mcs({nu!r}, {eta!r}, {p.value})", lambda: p_signal_mcs(nu, eta, p))
        show(f"p_vacuum_lossy(mcs_state({nu!r}, {p.value}), {eta!r})",
             lambda: p_vacuum_lossy(mcs_state(nu, p), eta))
        show(f"p_signal(mcs_state({nu!r}, {p.value}), {eta!r})",
             lambda: p_signal(mcs_state(nu, p), eta))
for alpha in (0.0, 0.3, 2.0):
    state = f"make_state({alpha!r}, {nu!r})"
    for p in Protocol:
        show(f"p_multi({state}, {p.value})", lambda: p_multi(make_state(alpha, nu), p))
    for eta in etas:
        show(f"p_vacuum_lossy({state}, {eta!r})",
             lambda: p_vacuum_lossy(make_state(alpha, nu), eta))
        show(f"p_signal({state}, {eta!r})", lambda: p_signal(make_state(alpha, nu), eta))
"""
LIBRARY_CASES = [(f"library scalars at nu = {nu!r}", ("-c", LIBRARY_SCRIPT, repr(nu)), {})
                 for nu in LIBRARY_NUS]


def bench_cases(seed: int, scratch: Path) -> list:
    """Every op of the benchmark's pools at ``seed``, with paths made relative to the case."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    cases = []
    for workload in workloads.WORKLOADS:
        base = scratch / workload
        for op in workloads.make_ops(workload, seed, base):
            op_dir = base / f"op{op.index:02d}"
            files = {str(path.relative_to(op_dir)): path.read_text(encoding="utf-8")
                     for path in op_dir.rglob("*") if path.is_file()}
            argv = tuple(arg.replace(f"{op_dir}/", "") for arg in op.argv)
            cases.append((f"bench {workload} op {op.index} (seed {seed})", argv, files))
    return cases


def _relative(a: str, b: str) -> float:
    """Relative difference of two CSV cells that differ as text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf  # text, such as a family name or an empty cutoff_km cell
    if x == y:
        return 0.0  # one number written two ways, such as 0 and -0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def column_diffs(parent: str, change: str) -> dict:
    """How two CSV texts differ: ``rows``, the row counts of each; ``head``, whether the
    ``#`` note lines and the header are the same; and ``columns``, per column of the
    parent's header, the number of cells that differ and their worst relative difference.

    Rows are compared in order, up to the shorter text.  Cells equal as text do not
    differ; cells that read as equal floats (signed zeros) differ by 0, and cells that
    are not both finite numbers (text, empty cells, nan, inf) by inf.
    """
    notes, tables = [], []
    for text in (parent, change):
        lines = text.splitlines()
        notes.append([line for line in lines if line.startswith("#")])
        tables.append(list(csv.reader(line for line in lines if not line.startswith("#"))) or [[]])
    (header, *rows), (other_header, *other_rows) = tables
    columns = {name: (0, 0.0) for name in header}
    for row, other in zip(rows, other_rows):
        for name, a, b in zip(header, row, other):
            if a != b:
                count, worst = columns[name]
                columns[name] = count + 1, max(worst, _relative(a, b))
    return {"rows": (len(rows), len(other_rows)),
            "head": notes[0] == notes[1] and header == other_header, "columns": columns}


def _table_report(name: str, parent: str, change: str) -> list[str]:
    """The row counts of two CSV texts under ``name``, then each column that differs."""
    diffs = column_diffs(parent, change)
    n, m = diffs["rows"]
    rows = f"{n} rows" if n == m else f"{n} rows -> {m} rows"
    return [f"{name}: {rows}" + ("" if diffs["head"] else ", notes or header differ"),
            *(f"    {column}: {count} cells differ, worst relative {worst:.3g}"
              for column, (count, worst) in diffs["columns"].items() if count)]


def column_report(parent: dict, change: dict) -> list[str]:
    """Lines that say how the files of one case differ between the trees, CSV column by column."""
    lines = []
    for path in sorted(parent.keys() | change.keys()):
        a, b = parent.get(path), change.get(path)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{path}: written by one tree only")
        elif not path.endswith(".csv"):
            lines.append(f"{path}: differs")
        else:
            lines += _table_report(path, a.decode(), b.decode())
    return lines


def case_report(parent: tuple, change: tuple) -> list[str]:
    """Lines that say how the outputs of one CLI case differ between the trees: a stdout
    that is a CSV (``rate``'s, which starts with ``# `` note lines) column by column,
    then the files (``column_report``)."""
    (_, out, _, files), (_, other_out, _, other_files) = parent, change
    lines = []
    if out != other_out and out.startswith("# ") and other_out.startswith("# "):
        lines = _table_report("stdout", out, other_out)
    return lines + column_report(files, other_files)


def run(tree: Path, argv, files, extra_env=None) -> tuple:
    """Exit code, stdout, stderr and {path: bytes} of the CSV and SVG files of one call,
    made with the variables of ``extra_env`` added to its environment."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), COLUMNS="80", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", **(extra_env or {}))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_text(text, encoding="utf-8")
        command = argv if argv[:1] == ("-c",) else ("-m", "mcs_qkd", *argv)
        done = subprocess.run([sys.executable, *command], cwd=work, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        written = {
            str(path.relative_to(work)): path.read_bytes()
            for path in sorted(work.rglob("*"))
            if path.suffix in {".csv", ".svg"} and path.is_file()
        }
    return done.returncode, done.stdout, done.stderr, written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark pools (0)")
    parser.add_argument("--change-env", action="append", default=[], metavar="NAME=VALUE",
                        help="an environment variable for the change tree's runs only")
    args = parser.parse_args(argv)
    if any("=" not in item for item in args.change_env):
        parser.error("--change-env takes NAME=VALUE")
    change_env = dict(item.split("=", 1) for item in args.change_env)
    trees = (args.parent_tree.resolve(), args.change_tree.resolve())
    for tree in trees:
        if not (tree / "src" / "mcs_qkd" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/mcs_qkd")
    with tempfile.TemporaryDirectory() as scratch:
        cases = CASES + LIBRARY_CASES + bench_cases(args.seed, Path(scratch))
        differ = 0
        for name, case_argv, files in cases:
            parent = run(trees[0], case_argv, files)
            change = run(trees[1], case_argv, files, change_env)
            if parent != change:
                differ += 1
                parts = ("exit code", "stdout", "stderr", "files")
                what = [part for part, a, b in zip(parts, parent, change) if a != b]
                if case_argv[:1] == ("-c",):
                    print(f"DIFFERS {name}: {', '.join(what)}")
                    for a, b in zip(parent[1].splitlines(), change[1].splitlines()):
                        if a != b:
                            print(f"    {a}  ->  {b.rpartition(': ')[2]}")
                else:
                    print(f"DIFFERS {name}: {', '.join(what)} (argv: {' '.join(case_argv)})")
                    for line in case_report(parent, change):
                        print(f"    {line}")
    print(f"{len(cases)} cases: {len(cases) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
