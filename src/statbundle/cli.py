"""Command-line front end.

Subcommands:

* ``statbundle verify`` -- run the seeded verification suite and print a
  per-check residual table; exits nonzero when any check fails.
* ``statbundle bayes``  -- marginalize a joint density from a JSON file,
  tabulate its conditionals, report the divergence chain rule, and
  (optionally) push a velocity through both derivative maps; results land
  as CSV.
* ``statbundle flow``   -- natural-gradient descent of a parameterized KL
  objective for an exponential family loaded from JSON.
* ``statbundle demo``   -- generate the bundled example files and run the
  three commands above over them.

All randomness flows through the single ``--seed`` value; reruns with the
same configuration produce byte-identical CSV output.

The parser only reads text: counts parse as ``int`` and tolerances as
``float``, and text that is neither is an argparse usage error.  Ranges
and defaults belong to the library.  An option left out of ``verify`` or
``flow`` is not passed, so it takes the library's default; the command
line's own defaults are those of ``demo``, ``--seed 7`` and ``--out
statbundle-demo``.  A value the library refuses prints ``error: ...`` on
stderr and exits 2 without writing any file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileio
from .bayes import (
    conditional_derivatives,
    conditionals,
    kl_chain,
    marginal_derivative,
    marginalize,
)
from .core import StatBundleError, uniform_density
from .expfam import natural_gradient_flow
from .verify import format_report, run_verification


def _sizes(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        try:
            a, b = part.split("x")
            out.append((int(a), int(b)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad size {part!r}; expected entries like 2x2,3x4"
            )
    return out


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statbundle",
        description="Dually affine information geometry on finite sample spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the seeded verification suite",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int,
                   help="instances per check and size entry")
    p.add_argument("--sizes", type=_sizes,
                   help="comma-separated joint sizes, e.g. 2x2,3x4")
    p.add_argument("--tol", dest="slack", metavar="TOL", type=float,
                   help="multiplicative slack on every check threshold")

    p = sub.add_parser(
        "bayes", help="marginalize a joint density and tabulate its conditionals"
    )
    p.add_argument("--joint", required=True, help="joint density JSON file")
    p.add_argument("--velocity", default=None,
                   help="optional fiber-vector JSON file at the joint")
    p.add_argument("--out", required=True, help="output directory for CSV files")

    p = sub.add_parser("flow", help="natural-gradient descent of a KL objective",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--family", required=True, help="exponential-family JSON file")
    p.add_argument("--target", required=True, help="target margin density JSON file")
    p.add_argument("--mode", choices=("left", "right"))
    p.add_argument("--theta0", type=_floats,
                   help="comma-separated starting parameter (default: zeros)")
    p.add_argument("--step", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--tol", type=float,
                   help="stop when the natural step norm ||F^-1 g|| drops "
                        "below this")
    p.add_argument("--out", required=True, help="output directory for CSV files")

    p = sub.add_parser("demo", help="generate example files and run everything")
    p.add_argument("--out", default="statbundle-demo")
    p.add_argument("--seed", type=int, default=7)
    return parser


def run_verify(report_path=None, **options) -> int:
    report = run_verification(**options)
    print(format_report(report))
    if report_path is not None:
        fileio.write_report_csv(report_path, report)
    return 0 if report.overall else 1


def run_bayes(joint, velocity, out) -> int:
    out = Path(out)
    q12 = fileio.load_joint(joint)
    v = None if velocity is None else fileio.load_velocity(velocity, q12)
    q1 = marginalize(q12)
    p1 = uniform_density(q12.space.left)
    p2 = uniform_density(q12.space.right)
    chain = kl_chain(p1, p2, q12)

    fileio.write_marginal_csv(out / "marginal.csv", q1)
    fileio.write_table_csv(out / "conditionals.csv", "value", conditionals(q12))
    fileio.write_kl_chain_csv(out / "kl_chain.csv", chain)
    written = ["marginal.csv", "conditionals.csv", "kl_chain.csv"]

    if v is not None:
        fileio.write_vector_csv(
            out / "marginal_derivative.csv",
            "value",
            marginal_derivative(q12, v).values,
        )
        fileio.write_table_csv(
            out / "conditional_derivatives.csv",
            "value",
            conditional_derivatives(q12, v),
        )
        written += ["marginal_derivative.csv", "conditional_derivatives.csv"]

    print(f"bayes: wrote {', '.join(written)} to {out}")
    print(
        "bayes: divergence chain total="
        f"{chain.total:.12g} marginal={chain.marginal_term:.12g} "
        f"conditional={chain.conditional_term:.12g} residual={chain.residual:.3e}"
    )
    return 0


def run_flow(family, target, out, theta0=None, **options) -> int:
    out = Path(out)
    family = fileio.load_family(family)
    target = fileio.load_density(target)
    if theta0 is None:
        theta0 = [0.0] * family.dim
    trace = natural_gradient_flow(family, theta0, target, **options)
    fileio.write_trace_csv(out / "trace.csv", trace)
    fileio.write_flow_summary_csv(out / "flow_summary.csv", trace)
    final = trace.final
    theta_text = ",".join(format(t, ".12g") for t in final.theta)
    print(
        f"flow: converged={trace.converged} stop_reason={trace.stop_reason} "
        f"iterations={final.iteration} "
        f"theta=[{theta_text}] objective={final.objective:.12g} "
        f"grad_norm={final.grad_norm:.3e} step_norm={final.step_norm:.3e}"
    )
    return 0 if trace.converged else 1


# ---------------------------------------------------------------------------
# demo fixtures: the worked 2-point and 2x2 examples used across the docs
# ---------------------------------------------------------------------------

_HALF_SPACE = {"weights": [0.5, 0.5]}

DEMO_FILES = {
    "two_point_p.json": {"space": _HALF_SPACE, "values": [1.0, 1.0]},
    "two_point_q.json": {"space": _HALF_SPACE, "values": [1.2, 0.8]},
    "two_point_r.json": {"space": _HALF_SPACE, "values": [0.6, 1.4]},
    "coupled_joint.json": {
        "left": _HALF_SPACE,
        "right": _HALF_SPACE,
        "values": [[1.6, 0.4], [0.4, 1.6]],
    },
    "coupled_joint_velocity.json": {"values": [[0.4, -1.6], [-1.6, 0.4]]},
    "diag_family.json": {
        "left": _HALF_SPACE,
        "right": _HALF_SPACE,
        "base1": [1.0, 1.0],
        "base2": [1.0, 1.0],
        "stats": [[[1.0, -1.0], [-1.0, 1.0]]],
    },
    "margin_family.json": {
        "left": _HALF_SPACE,
        "right": _HALF_SPACE,
        "base1": [1.0, 1.0],
        "base2": [1.0, 1.0],
        "stats": [[[1.0, 1.0], [-1.0, -1.0]]],
    },
    "flow_target.json": {"space": _HALF_SPACE, "values": [1.0, 1.0]},
}


def run_demo(out, seed: int) -> int:
    out = Path(out)
    # The suite reads no fixture, so it runs first: a seed it refuses
    # leaves nothing behind.
    print("demo: [1/3] verification suite")
    verify_rc = run_verify(
        seed=seed, trials=10, report_path=out / "verify_report.csv"
    )

    fixtures = out / "fixtures"
    for name, obj in DEMO_FILES.items():
        fileio.write_json(fixtures / name, obj)
    print(f"demo: wrote {len(DEMO_FILES)} fixture files to {fixtures}")

    print("demo: [2/3] bayes computations on the 2x2 example")
    bayes_rc = run_bayes(
        fixtures / "coupled_joint.json",
        fixtures / "coupled_joint_velocity.json",
        out / "bayes",
    )

    print("demo: [3/3] natural-gradient flow on the margin-moving family")
    flow_rc = run_flow(
        fixtures / "margin_family.json",
        fixtures / "flow_target.json",
        out / "flow",
        theta0=[1.0],
        tol=1e-7,
    )

    overall = verify_rc == 0 and bayes_rc == 0 and flow_rc == 0
    print(f"demo: overall {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 1


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    # Looked up per call, so that a runner rebound on the module is the one run.
    runners = {"verify": run_verify, "bayes": run_bayes, "flow": run_flow,
               "demo": run_demo}
    try:
        return runners[options.pop("command")](**options)
    except (StatBundleError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
