"""Byte-identity corpus: run the same CLI calls against two source trees and compare them.

    python3 tools/byte_corpus.py PARENT_TREE CHANGE_TREE [--seed N]

Each tree is a checkout with ``src/mcs_qkd``.  Every case runs as
``python -m mcs_qkd ARGV`` in a fresh directory that holds only the case's
input files, once per tree, with ``PYTHONPATH`` set to that tree's ``src``.
A case matches when the exit code, stdout, stderr and the SHA-256 of every
CSV and SVG file written under the directory are the same for both trees.

The corpus covers every command's normal runs, its configuration and I/O
errors, argparse errors and ``--help``, plus every op of the benchmark's
``sweep``, ``scan`` and ``oracle`` pools at ``--seed`` (inputs made by the
``bench/workloads.py`` next to this script).  It prints one line per case that
differs and a summary, and exits 0 only when every case matches.  A pure
refactor of the CLI or its output path should leave every case matching.
"""

from __future__ import annotations

import argparse
import hashlib
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
    _case("verify endpoint etas ignore the node count", "verify --config c.cfg --quad-nodes 8",
          cfg="verify_etas = 0, 1\n"),
    _case("verify node count before a later bad alpha", "verify --config c.cfg --quad-nodes 8",
          cfg="verify_alphas = 0.5, -1\n"),
    # argparse
    _case("argparse bad choice", "rate --family nope --nu 0.1"),
    _case("argparse bad float", "rate --family mcs-bb84 --nu abc"),
    _case("argparse no command", ""),
    _case("help", "--help"),
    *(_case(f"help {command}", f"{command} --help")
      for command in ("rate", "figure1", "figure2", "verify")),
]


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


def run(tree: Path, argv, files) -> tuple:
    """Exit code, stdout, stderr and {path: SHA-256} of the CSV and SVG files of one call."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), COLUMNS="80", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "mcs_qkd", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        digests = {
            str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.suffix in {".csv", ".svg"} and path.is_file()
        }
    return done.returncode, done.stdout, done.stderr, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark pools (0)")
    args = parser.parse_args(argv)
    trees = (args.parent_tree.resolve(), args.change_tree.resolve())
    for tree in trees:
        if not (tree / "src" / "mcs_qkd" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/mcs_qkd")
    with tempfile.TemporaryDirectory() as scratch:
        cases = CASES + bench_cases(args.seed, Path(scratch))
        differ = 0
        for name, case_argv, files in cases:
            parent, change = (run(tree, case_argv, files) for tree in trees)
            if parent != change:
                differ += 1
                parts = ("exit code", "stdout", "stderr", "files")
                what = [part for part, a, b in zip(parts, parent, change) if a != b]
                print(f"DIFFERS {name}: {', '.join(what)} (argv: {' '.join(case_argv)})")
    print(f"{len(cases)} cases: {len(cases) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
