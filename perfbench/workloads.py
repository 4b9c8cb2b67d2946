"""The benchmark's workloads: job pools, seeded job lists, and job runners.

Each workload has a finite pool of job specs.  A seed draws a job list of
fixed composition from the pool, so every seed asks for the same kind and
amount of work.  Every pool entry has a pinned digest of its output in
``reference.json`` (written by ``pin.py``), and a run compares each job's
output with it.

Traced functions are always called through their module (``mfchern.X`` or
``cli.main``), never through a name bound here, so the tracer sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mfchern
import mfchern.cli
from mfchern import ideals
from mfchern.cli import matfac_to_doc
from mfchern.exterior import Form
from mfchern.mf import MatFac, PolyMatrix
from mfchern.ring import Poly, RingCtx, parse_poly, print_poly

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chern_text(ch) -> str:
    """The ch components as ``mfchern chern`` prints them."""
    return "\n".join(f"deg {d}: {mfchern.print_form(w)}" for d, w in ch.entries)


def df_cache():
    """The process-wide df-image Groebner basis cache of ``ideals``."""
    return ideals._cached_df_image_gb


class Job:
    """One unit of work: ``fn()`` is timed; ``render(fn())`` is the output
    text compared with the reference, made outside the timing and the cache
    accounting."""

    def __init__(self, spec, fn, render=str, potential=None):
        self.spec = spec
        self.key = spec["key"]
        self.fn = fn
        self.render = render
        self.potential = potential


# ---------------------------------------------------------------------------
# chern_koszul: ch of tensor towers of Koszul factorizations
# ---------------------------------------------------------------------------

def koszul_tower(m: int, s: int, cs) -> MatFac:
    """Tensor of the factorizations (x_i + c_i*x_(i+s mod m) | y_i), i < m.

    Ranks 2^(m-1) + 2^(m-1) over 2m variables.
    """
    names = [f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)]
    ctx = RingCtx(tuple(names))
    out = None
    for i in range(m):
        a = parse_poly(f"x{i} + ({cs[i]})*x{(i + s) % m}", ctx)
        b = parse_poly(f"y{i}", ctx)
        K = MatFac(ctx, a * b, PolyMatrix(ctx, 1, 1, [[a]]), PolyMatrix(ctx, 1, 1, [[b]]))
        out = K if out is None else mfchern.tensor(out, K)
    return out


def _isolated(m, s, cs) -> bool:
    """det(I + diag(c) P) != 0 for the shift P by s: f has an isolated
    critical point.  Each cycle of length L with coefficient product p
    contributes the factor 1 - (-1)^L p."""
    seen = set()
    for start in range(m):
        if start in seen:
            continue
        i, length, prod = start, 0, 1
        while i not in seen:
            seen.add(i)
            prod *= cs[i]
            length += 1
            i = (i + s) % m
        if 1 - (-1) ** length * prod == 0:
            return False
    return True


class ChernKoszul:
    """``chern_character`` on Koszul towers at n = 8 (ranks 8+8) and one
    random connection at n = 4; almost all time is wedge-matrix products,
    and ``ideals`` sees one cache miss per potential.

    Warm: the df-image cache persists across rounds and is filled during
    set-up, as in a session that computes many characters of one potential.
    """

    name = "chern_koszul"
    cold = False
    jobs_in_children = False
    # A job list is 1 random connection and 4 n=8 towers, so p50 and p60
    # fall near the middle of the n=8 times.  Order statistics near the edge
    # of a class of equal jobs swing with the host's load twice as much.
    tail_percentile = 60
    C = (-1, 2, 3)
    # The connection's seed is fixed: across seeds 0..7 the random-connection
    # job's cost varied fivefold, against 2x across the coefficients c.
    RANDOM_CONNECTION_SEED = 7

    def pool(self):
        out = []
        for s in (1, 3):
            for cs in itertools.product(self.C, repeat=4):
                if _isolated(4, s, cs):
                    out.append({"key": f"tower:m4:s{s}:c={','.join(map(str, cs))}",
                                "m": 4, "s": s, "cs": cs, "r": None})
        # Random connections stay at n = 4: at n = 6 a single job can run
        # for minutes.
        r = self.RANDOM_CONNECTION_SEED
        for cs in itertools.product(self.C, repeat=2):
            if _isolated(2, 1, cs):
                out.append({"key": f"rand:m2:s1:c={','.join(map(str, cs))}:r{r}",
                            "m": 2, "s": 1, "cs": cs, "r": r})
        return out

    def draw(self, rng):
        pool = self.pool()
        towers = [p for p in pool if p["r"] is None]
        rand = [p for p in pool if p["r"] is not None]
        specs = rng.sample(towers, 4) + rng.sample(rand, 1)
        rng.shuffle(specs)
        return specs

    def prepare(self, specs, in_process=True):
        jobs = []
        for spec in specs:
            M = koszul_tower(spec["m"], spec["s"], spec["cs"])
            conn = None
            if spec["r"] is not None:
                conn = mfchern.random_connection(M, random.Random(spec["r"]))
            jobs.append(Job(spec, lambda M=M, conn=conn: mfchern.chern_character(M, conn),
                            chern_text, M.f))
        return jobs

    def warm(self, jobs):
        """Fill the cache for every degree a job reduces in: the top degree,
        and all even degrees under a random connection."""
        for job in jobs:
            ctx = job.potential.ctx
            n = ctx.nvars
            degrees = [n] if job.spec["r"] is None else range(2, n + 1, 2)
            for k in degrees:
                vol = Form(ctx, {tuple(range(k)): Poly.one(ctx)})
                mfchern.form_normal_form(vol, job.potential)


# ---------------------------------------------------------------------------
# gb_cold: df-image module Groebner bases from an empty cache
# ---------------------------------------------------------------------------

# Fixed shapes: the seed only picks the signs of the {a}, {b}, ... slots, so
# every potential of a shape costs about the same (within 8% at k = 3; with
# a free sign on y*w in g3 the spread was 35%).  Both are products, and
# neither is quasi-homogeneous.
GB_SHAPES = {
    "g3": ("x^3 + y*w", "({a})*z^2 + ({b})*x*w + y^2 + ({c})*x"),
    "g2": ("x^2 + ({a})*y*w", "({b})*z^2 + ({c})*x*w + y^2 + ({d})*z"),
}
GB_VARS = ("x", "y", "z", "w")


def gb_sign_choices(shape):
    slots = sum(f"{{{c}}}" in "".join(GB_SHAPES[shape]) for c in "abcd")
    return list(itertools.product((-1, 1), repeat=slots))


def gb_potential(shape, signs) -> Poly:
    g, h = (t.format(**dict(zip("abcd", signs))) for t in GB_SHAPES[shape])
    return parse_poly(f"({g})*({h})", RingCtx(GB_VARS))


def gb_form(ctx, k, r) -> Form:
    """Fixed nonzero k-form number r: up to two terms, each coefficient a
    monomial of degree 1 or 2 plus a constant."""
    rng = random.Random(f"gb-form:{k}:{r}")
    subsets = list(itertools.combinations(range(ctx.nvars), k))
    comps = {}
    for idx in rng.sample(subsets, min(2, len(subsets))):
        mono = [0] * ctx.nvars
        for _ in range(rng.randint(1, 2)):
            mono[rng.randrange(ctx.nvars)] += 1
        comps[idx] = Poly(ctx, {tuple(mono): rng.choice((-3, -2, -1, 1, 2, 3)),
                                (0,) * ctx.nvars: rng.randint(1, 2)})
    return Form(ctx, comps)


class GbCold:
    """``df_image_module_gb`` for k = 2..4, then one ``form_normal_form`` in
    that degree, with the cache cleared before each job, so each job builds
    the module Groebner basis of df ^ Omega^(k-1) (the write path of
    ``ideals``); ``exterior`` does no matrix work.

    Cold: the cache is cleared before every job.
    """

    name = "gb_cold"
    cold = True
    jobs_in_children = False
    # A job list is k = 2, 4, 3 for one g3 and two g2 potentials.  By cost
    # p50 falls a quarter into the k = 4 jobs of g2, and p70 a quarter into
    # the k = 3 jobs of g3.
    tail_percentile = 70
    FORMS_PER_DEGREE = 4

    def pool(self):
        out = []
        for shape in GB_SHAPES:
            for signs in gb_sign_choices(shape):
                for k in (2, 3, 4):
                    for r in range(self.FORMS_PER_DEGREE):
                        out.append({
                            "key": f"{shape}:{','.join(map(str, signs))}:k{k}:r{r}",
                            "shape": shape, "signs": signs, "k": k, "r": r,
                        })
        return out

    def draw(self, rng):
        potentials = (
            [("g3", s) for s in rng.sample(gb_sign_choices("g3"), 1)]
            + [("g2", s) for s in rng.sample(gb_sign_choices("g2"), 2)]
        )
        by_key = {p["key"]: p for p in self.pool()}
        specs = []
        for shape, signs in potentials:
            for k in (2, 3, 4):
                r = rng.randrange(self.FORMS_PER_DEGREE)
                specs.append(by_key[f"{shape}:{','.join(map(str, signs))}:k{k}:r{r}"])
        rng.shuffle(specs)
        return specs

    def prepare(self, specs, in_process=True):
        jobs = []
        for spec in specs:
            f = gb_potential(spec["shape"], spec["signs"])
            w = gb_form(f.ctx, spec["k"], spec["r"])
            jobs.append(Job(spec, lambda f=f, w=w: _gb_job(f, w), _gb_text))
        return jobs

    def warm(self, jobs):
        """Run the cheapest job once to load code paths; leave the cache empty."""
        next(j for j in jobs if j.spec["k"] == 2).fn()
        df_cache().cache_clear()


def _gb_job(f, w):
    """Build the basis of df ^ Omega^(k-1), then reduce w with
    ``form_normal_form``.  The basis is built through the cache's entry
    point, which calls ``df_image_module_gb`` on a miss, so that the
    normal form reads it instead of building it a second time."""
    gb = df_cache()(f, w.degree())
    return gb, mfchern.form_normal_form(w, f)


def _gb_text(result):
    """The reduced basis the job built, then the normal form."""
    gb, nf = result
    lines = ["[" + ", ".join(print_poly(p) for p in v) + "]" for v in gb.generators]
    lines.append("nf: " + mfchern.print_form(nf))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check_cli: `mfchern check <doc> --suite all --seed S`, one process per doc
# ---------------------------------------------------------------------------

def _mf1(ctx, a, b) -> MatFac:
    a, b = parse_poly(a, ctx), parse_poly(b, ctx)
    return MatFac(ctx, a * b, PolyMatrix(ctx, 1, 1, [[a]]), PolyMatrix(ctx, 1, 1, [[b]]))


def _power(n, i):
    return _mf1(RingCtx(("x",)), f"x^{i}", f"x^{n - i}")


def _koszul(m, c):
    vs = ("x", "y", "z", "w")[:m]
    b = {2: "y", 3: "z", 4: "z + w"}[m]
    return _mf1(RingCtx(vs), f"x + ({c})*y", b)


def _threevar():
    ctx = RingCtx(("x", "y", "z"))
    P = lambda s: parse_poly(s, ctx)
    A = PolyMatrix(ctx, 2, 2, [[P("z"), P("y")], [P("x"), P("-x-y")]])
    B = PolyMatrix(ctx, 2, 2, [[P("x+y"), P("y")], [P("x"), P("-z")]])
    return MatFac(ctx, P("x*y + y*z + z*x"), A, B)


def _tensor_koszul(c):
    ctx = RingCtx(("x", "y", "z", "w"))
    return mfchern.tensor(_mf1(ctx, f"x + ({c})*z", "y"), _mf1(ctx, "z", "w"))


_POWER_PAIRS = ((2, 1), (3, 1), (3, 2))


def _tensor_power(p, q):
    return mfchern.tensor(_power(*_POWER_PAIRS[p]), _power(*_POWER_PAIRS[q]))


def cli_documents():
    """Document name -> (group, builder) for the whole corpus."""
    docs = {}
    for n in range(2, 7):
        for i in range(1, n):
            docs[f"power-n{n}-i{i}"] = ("power", lambda n=n, i=i: _power(n, i))
    for m in (2, 3, 4):
        for c in (-1, 0, 1, 2):
            docs[f"koszul-m{m}-c{c}"] = (f"koszul{m}", lambda m=m, c=c: _koszul(m, c))
    docs["threevar"] = ("threevar", _threevar)
    for c in (-1, 0, 1, 2):
        docs[f"tensor-koszul-c{c}"] = ("tensor_koszul", lambda c=c: _tensor_koszul(c))
    for p, q in ((0, 0), (0, 1), (0, 2), (1, 2)):
        docs[f"tensor-power-{p}{q}"] = ("tensor_power", lambda p=p, q=q: _tensor_power(p, q))
    return docs


class CheckCli:
    """``mfchern check`` as users run it: interpreter start and import per
    document, then every suite.  Each document builds its df-image bases
    once and reads them many times (the read path of ``ideals``); the only
    workload that drives ``mf`` (cone, tensor, pushforward, validation)
    and ``cli``.

    Cold: every document runs in a fresh process, so its cache starts
    empty, as it does for a user.  The traced run calls ``cli.main``
    in-process instead and clears the cache before each document to match.
    """

    name = "check_cli"
    cold = True
    jobs_in_children = True
    # Six small documents, then the Koszul tensor, then the 2x2 example:
    # p80 falls on the Koszul tensors.
    tail_percentile = 80
    # The check seed is fixed: on the 2x2 example the random-connection
    # suites cost from 0.4 s to 1.2 s depending on it.  The benchmark seed
    # picks the documents.
    CHECK_SEED = 0
    # group -> documents per job list
    COMPOSITION = (("power", 2), ("koszul2", 1), ("koszul3", 1), ("koszul4", 1),
                   ("threevar", 1), ("tensor_koszul", 1), ("tensor_power", 1))

    def pool(self):
        return [
            {"key": f"{doc}:seed{self.CHECK_SEED}", "doc": doc, "seed": self.CHECK_SEED}
            for doc in cli_documents()
        ]

    def draw(self, rng):
        docs = cli_documents()
        by_doc = {p["doc"]: p for p in self.pool()}
        specs = []
        for group, count in self.COMPOSITION:
            names = [d for d, (g, _) in docs.items() if g == group]
            specs += [by_doc[doc] for doc in rng.sample(names, count)]
        rng.shuffle(specs)
        return specs

    def prepare(self, specs, in_process=False):
        docs = cli_documents()
        (WORK / "docs").mkdir(parents=True, exist_ok=True)
        jobs = []
        for spec in specs:
            rel = f".perfbench_work/docs/{spec['doc']}.json"
            with open(ROOT / rel, "w", encoding="utf-8") as fh:
                json.dump(matfac_to_doc(docs[spec["doc"]][1]()), fh, sort_keys=True)
            argv = ["check", rel, "--suite", "all", "--seed", str(spec["seed"])]
            run = _cli_in_process if in_process else _cli_subprocess
            jobs.append(Job(spec, lambda argv=argv, run=run: run(argv)))
        return jobs

    def warm(self, jobs):
        """One run of the first document: byte-compiles and pages in the
        package, which every user invocation after the first finds ready."""
        jobs[0].fn()


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "mfchern.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    return f"exit {proc.returncode}\n{proc.stdout}"


def _cli_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mfchern.cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


WORKLOADS = {w.name: w for w in (ChernKoszul(), GbCold(), CheckCli())}
