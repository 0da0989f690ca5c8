"""The benchmark workloads: inputs, the measured op, and its oracle.

Each workload makes its inputs from the run seed in two steps.
``generate`` is benchmark-side and draws plain numpy arrays; ``build``
turns them into library objects and is the part timed as set-up.  A
``build`` that draws arrays itself reports that time in ``generate_s``,
which set-up time leaves out.  ``op``
is one measured call into the library; ``check`` is an oracle that does
not trust the library's own output and returns a reason when the op is
wrong, else ``None``.  The library receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

import statbundle as sb
from statbundle import cli


class Verify:
    """``statbundle verify`` at its default sizes; one op = one suite run.

    Every op runs the suite at the run seed, as ``statbundle verify --seed
    <seed>`` does, so op times differ only by machine noise.
    """

    trials = 25
    sizes = [(2, 2), (3, 4)]
    items_per_op = 1450
    us_shape = (2,)
    # Single-space checks run once per distinct outcome count, pair checks
    # once per size: 12 and 11 of the 23 checks.
    per_check = {trials * 3, trials * 2}

    def generate(self, seed):
        return seed

    def build(self, raw):
        self.seed = raw

    def prepare(self, workdir):
        pass

    def warmup(self):
        sb.run_verification(seed=self.seed, trials=1, sizes=self.sizes)

    def op(self, i):
        return sb.run_verification(seed=self.seed, trials=self.trials, sizes=self.sizes)

    def check(self, i, report):
        if not report.overall:
            bad = [c.name for c in report.checks if not c.passed]
            return f"failing checks {bad}"
        total = sum(c.instances for c in report.checks)
        odd = [c.name for c in report.checks if c.instances not in self.per_check]
        if total != self.items_per_op or odd:
            return f"{total} instances, expected {self.items_per_op}; odd counts in {odd}"
        return None


class VerifyLarge(Verify):
    """The suite at 64x64 and 200x300, where the per-x loops of ``bayes`` and
    ``expfam`` dominate rather than object construction."""

    trials = 2
    sizes = [(64, 64), (200, 300)]
    items_per_op = 116
    us_shape = (200, 300)
    per_check = {trials * 3, trials * 2}


def _close(a, b, rel=1e-12):
    """Max-abs agreement scaled by the size of the reference values."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= rel * max(
        1.0, float(np.max(np.abs(b))))


class BayesTable:
    """``statbundle bayes`` in-process on one seeded 300x300 joint.

    Reading the JSON and writing two 90k-row CSVs dominate, so read and
    write cost both show; every op reruns the same input so the output can
    also be required to be byte-identical from op to op.  Only a hash of
    the first op's files is kept, so the oracle adds little to peak memory.
    """

    n1 = n2 = 300
    items_per_op = n1 * n2
    us_shape = (n2,)
    files = ("marginal.csv", "conditionals.csv", "kl_chain.csv",
             "marginal_derivative.csv", "conditional_derivatives.csv")

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        w1 = rng.uniform(0.2, 2.0, self.n1)
        w2 = rng.uniform(0.2, 2.0, self.n2)
        w12 = np.outer(w1, w2)
        g = rng.standard_normal((self.n1, self.n2))
        q = np.exp(g - g.max())
        q /= float(np.dot(q.ravel(), w12.ravel()))
        v = rng.standard_normal((self.n1, self.n2))
        v -= float(np.dot((v * q).ravel(), w12.ravel()))
        return w1, w2, q, v

    def build(self, raw):
        w1, w2, q, v = raw
        space = sb.ProductSpace(sb.make_space(w1), sb.make_space(w2))
        sb.FiberVector(sb.make_density(space, q), v, "mixture")
        self.w1, self.w2, self.q, self.v = w1, w2, q, v

    def prepare(self, workdir):
        self.joint_path = os.path.join(workdir, "joint.json")
        self.velocity_path = os.path.join(workdir, "velocity.json")
        with open(self.joint_path, "w", encoding="utf-8") as fh:
            json.dump({"left": {"weights": self.w1.tolist()},
                       "right": {"weights": self.w2.tolist()},
                       "values": self.q.tolist()}, fh)
        with open(self.velocity_path, "w", encoding="utf-8") as fh:
            json.dump({"values": self.v.tolist()}, fh)
        self.out_dirs = [os.path.join(workdir, "out0"), os.path.join(workdir, "out1")]
        self.reference = None

    def warmup(self):
        self.op(1)

    def op(self, i):
        out = self.out_dirs[i % 2]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["bayes", "--joint", self.joint_path, "--velocity",
                           self.velocity_path, "--out", out])
        return rc, out

    def check(self, i, result):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        digest = hashlib.sha256()
        for name in self.files:
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
        if self.reference is None:
            reason = self._recompute(out)
            if reason is None:
                self.reference = digest.digest()
            return reason
        if digest.digest() != self.reference:
            return "output differs from an earlier op on the same input"
        return None

    def _recompute(self, out):
        """Parse the CSVs and recompute every table in plain numpy."""
        def table(name):
            return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1,
                              ndmin=2)

        n1, n2, w1, w2, v = self.n1, self.n2, self.w1, self.w2, self.v
        q = self.q
        grid_x, grid_y = np.divmod(np.arange(n1 * n2), n2)
        q1 = q @ w2
        cond = q / q1[:, None]
        marginal = table("marginal.csv")
        if not (np.array_equal(marginal[:, 0], np.arange(n1))
                and np.array_equal(marginal[:, 1], w1) and _close(marginal[:, 2], q1)):
            return "marginal.csv disagrees with the numpy margin"
        conds = table("conditionals.csv")
        if not (np.array_equal(conds[:, 0], grid_x) and np.array_equal(conds[:, 1], grid_y)
                and _close(conds[:, 2], cond.ravel())):
            return "conditionals.csv disagrees with the numpy conditionals"
        if not _close(conds[:, 2].reshape(n1, n2) @ w2, np.ones(n1)):
            return "a conditional in conditionals.csv is not normalised"
        mderiv = table("marginal_derivative.csv")
        if not (np.array_equal(mderiv[:, 0], np.arange(n1))
                and _close(mderiv[:, 1], ((v * q) @ w2) / q1)):
            return "marginal_derivative.csv disagrees with E[v | x]"
        cderiv = table("conditional_derivatives.csv")
        expected = v - ((v * cond) @ w2)[:, None]
        if not (np.array_equal(cderiv[:, 0], grid_x) and np.array_equal(cderiv[:, 1], grid_y)
                and _close(cderiv[:, 2], expected.ravel())):
            return "conditional_derivatives.csv disagrees with the centred sections"
        chain = table("kl_chain.csv")[0]
        p1 = 1.0 / w1.sum()
        p2 = 1.0 / w2.sum()
        total = float(np.sum(np.outer(w1, w2) * p1 * p2 * np.log(p1 * p2 / q)))
        marginal_term = float(np.sum(w1 * p1 * np.log(p1 / q1)))
        cond_term = float(np.sum(w1 * p1 * ((w2 * p2) * np.log(p2 / cond)).sum(axis=1)))
        if not _close(chain[:3], [total, marginal_term, cond_term]):
            return "kl_chain.csv disagrees with the numpy divergences"
        if not (chain[3] <= 1e-12 and abs(total - marginal_term - cond_term) <= 1e-12):
            return f"chain residual {chain[3]!r} exceeds 1e-12"
        return None


def _tilted(raw, theta):
    """The joint density of the family at theta, computed in plain numpy."""
    w1, w2, p1, p2, stats, _ = raw
    logits = np.tensordot(theta, stats, axes=1)
    g = np.exp(logits - logits.max()) * np.outer(p1, p2)
    return g / float(np.sum(g * np.outer(w1, w2)))


class FlowDescent:
    """Natural-gradient flows to tolerance on seeded 200x200, d = 3 families.

    Iteration counts vary by family (about 25 to 55), so a run cycles
    through many families built in set-up rather than one.  Four
    consecutive ops run the same family, in ``left``, ``right``, ``left``,
    ``right`` mode.  Each family has its own random stream, so the oracle
    regenerates one family's raw arrays when it checks an op instead of
    holding all of them for the whole run.

    The flow takes fixed Euler steps of 0.5, which near the optimum
    contract at the rate max|1 - 0.5 lam| over the eigenvalues lam of the
    margin's Fisher information at theta*.  A family with a rate near 1
    never reaches the tolerance (about 1 in 300 draws has lam near 4, and
    its ``right`` flow then cycles for all 1000 iterations), so a draw
    whose rate exceeds ``max_rate`` is drawn again.
    """

    items_per_op = 1
    n1 = n2 = 200
    dim = 3
    families = 32
    us_shape = (n1, n2)
    step = 0.5
    tol = 1e-7
    max_rate = 0.85

    def family_raw(self, k):
        rng = np.random.default_rng([self.seed, 3, k])
        while True:
            w1 = rng.uniform(0.2, 2.0, self.n1)
            w2 = rng.uniform(0.2, 2.0, self.n2)
            p1 = np.exp(rng.standard_normal(self.n1))
            p2 = np.exp(rng.standard_normal(self.n2))
            p1 /= float(p1 @ w1)
            p2 /= float(p2 @ w2)
            # Statistics move the first margin: a per-x signal plus noise.
            signal = rng.standard_normal((self.dim, self.n1, 1))
            stats = signal + 0.3 * rng.standard_normal((self.dim, self.n1, self.n2))
            theta_star = rng.uniform(-1.0, 1.0, self.dim)
            raw = w1, w2, p1, p2, stats, theta_star
            g = _tilted(raw, theta_star)
            g1 = g @ w2
            cond_mean = (stats * (g * w2)).sum(axis=2) / g1
            centred = cond_mean - (cond_mean @ (w1 * g1))[:, None]
            fisher = (centred * (w1 * g1)) @ centred.T
            lam = np.linalg.eigvalsh(fisher)
            if np.max(np.abs(1.0 - self.step * lam)) <= self.max_rate:
                return raw

    def generate(self, seed):
        return seed, np.random.default_rng([seed, 3]).permutation(self.families)

    def build(self, raw):
        """Build the families one at a time, so that the raw arrays of only
        one are alive at once; their generation is timed apart in
        ``generate_s``."""
        self.seed, self.order = raw
        self.generate_s = 0.0
        self.built = []
        for k in range(self.families):
            t = time.perf_counter()
            w1, w2, p1, p2, stats, theta_star = self.family_raw(k)
            self.generate_s += time.perf_counter() - t
            d1 = sb.make_density(sb.make_space(w1), p1)
            d2 = sb.make_density(sb.make_space(w2), p2)
            family = sb.make_expfam(d1, d2, stats)
            target = sb.marginalize(sb.density(family, theta_star))
            self.built.append((family, target))

    def prepare(self, workdir):
        self.checked = None, None

    def _pick(self, i):
        return int(self.order[(i // 4) % self.families]), ("left", "right")[i % 2]

    def warmup(self):
        family, target = self.built[0]
        sb.natural_gradient_flow(family, np.zeros(self.dim), target, mode="right",
                                 step=self.step, iters=1000, tol=self.tol)

    def op(self, i):
        k, mode = self._pick(i)
        family, target = self.built[k]
        return sb.natural_gradient_flow(family, np.zeros(self.dim), target,
                                        mode=mode, step=self.step, iters=1000,
                                        tol=self.tol)

    def check(self, i, trace):
        k, mode = self._pick(i)
        final = trace.final
        if not trace.converged:
            return f"family {k} {mode}: not converged after {final.iteration} iterations"
        # Four consecutive ops share a family; keep only the last one drawn.
        if self.checked[0] != k:
            self.checked = k, self.family_raw(k)
        raw = self.checked[1]
        w1, w2, theta_star = raw[0], raw[1], raw[5]
        err = float(np.max(np.abs(final.theta - theta_star)))
        if err > 1e-5:
            return f"family {k} {mode}: |theta - theta*| = {err:.3e} > 1e-5"
        g1, r1 = _tilted(raw, final.theta) @ w2, _tilted(raw, theta_star) @ w2
        a, b = (r1, g1) if mode == "left" else (g1, r1)
        objective = float(np.sum(w1 * a * np.log(a / b)))
        if abs(objective - final.objective) > 1e-12 + 1e-9 * abs(objective):
            return (f"family {k} {mode}: reported objective {final.objective!r}, "
                    f"recomputed {objective!r}")
        if objective > 1e-10:
            return f"family {k} {mode}: objective {objective!r} is not at the optimum"
        return None


WORKLOADS = {
    "verify-small": Verify,
    "verify-large": VerifyLarge,
    "bayes-table": BayesTable,
    "flow-descent": FlowDescent,
}
