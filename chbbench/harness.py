"""Workloads, tracing and output checks of the chbfem benchmark.

The benchmark drives the calls that ``chbfem run`` makes: build the mesh,
construct one ``ChbSystem`` per strategy, advance each strategy with
``advance_simulation``, then write VTK snapshots and the metrics CSV.
Runs are a closed loop with one client: one repetition after another in
a single process, until the next one would end after ``--seconds``
(at least one).  Every wall time comes from the harness's own clock and
is scaled to a nominal host speed by HostProbe; iteration counts repeat
exactly for a given seed.

Per-layer numbers come from a separate traced mode.  It wraps the public
entry points of each layer from this file (the ``chbfem._kernels``
functions, ``solve_linear``, ``scipy.sparse.linalg.splu``, the
``ChbSystem`` assembly methods and the I/O writers), keeps spans
``(name, start, end, parent)`` in memory and reduces them to self times
after the repetition.  Nothing inside the package is changed.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import chbfem.cli as cli
import chbfem.linalg as linalg
import chbfem.solvers as solvers
from chbfem import _kernels as kn
from chbfem.mesh import build_unit_square_mesh
from chbfem.model import MaterialParams

STRATEGIES = ("monolithic", "splitting")   # the order run_experiment uses
SETUP_SAMPLES = 15
AGREE_TOL = 1e-5       # acceptance criterion 1
CONSERVE_TOL = 1e-10   # acceptance criterion 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    steps: int
    xi: float
    io: bool            # VTK every step plus the metrics CSV
    compare: bool       # both strategies must converge and agree
    seeded_mono: bool = True   # False: monolithic starts from seed 0's state
    expected: dict = field(default_factory=dict)   # seed-0 outcome
    probe: tuple = (1, 0.05)   # HostProbe repeats and nominal sample time


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "desk": Workload(
        "desk", n=16, steps=20, xi=0.5, io=True, compare=True,
        probe=(2, 0.031),
        expected={"split_outer_iters": 174, "split_newton_iters": 409,
                  "mono_newton_iters": 81, "mono_stop": "converged"}),
    "fine": Workload(
        "fine", n=65, steps=1, xi=0.5, io=True, compare=True,
        probe=(1, 0.077),
        expected={"split_outer_iters": 16, "split_newton_iters": 42,
                  "mono_newton_iters": 7, "mono_stop": "converged"}),
    "swell": Workload(
        "swell", n=16, steps=20, xi=2.0, io=False, compare=False,
        probe=(2, 0.027),
        # the diverging Newton run is chaotic in its initial state: moving
        # the interface by 1e-4 to 1e-3 of a cell turns divergence after 29
        # iterations into divergence after 11 to 60, or convergence
        seeded_mono=False,
        expected={"split_outer_iters": 647, "split_newton_iters": 1612,
                  "mono_newton_iters": 29, "mono_stop": "diverged"}),
}

# fills lazy imports and allocator pools before anything is timed
WARMUP = Workload("warmup", n=8, steps=2, xi=0.5, io=True, compare=True)

KERNELS = ("ch_load", "ch_jac", "phase_cell_integrals", "rt0_weighted_mass",
           "coupling_blocks")
# ChbSystem method -> assembly category; a method called from another
# assembly method is charged to its caller's category
ASSEMBLY_METHODS = {
    "ch_residual": "ch", "ch_residual_and_jacobian": "ch",
    "solve_ch_subsystem": "ch",
    "_elasticity_data": "elas", "solve_elasticity": "elas",
    "_flow_data": "flow", "storage_coefficient": "flow", "solve_flow": "flow",
    "monolithic_residual": "mono_res", "monolithic_jacobian": "mono_jac",
}
ASM_CATEGORIES = ("ch", "elas", "flow", "mono_res", "mono_jac")
STEP_METHODS = ("splitting_step", "monolithic_step")
SUBSYSTEMS = ("ch", "elas", "flow", "mono")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "split_wall_s": "s", "mono_wall_s": "s",
    "split_outer_iters": "count", "split_newton_iters": "count",
    "mono_newton_iters": "count", "steps_ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {"setup.mesh_s": "s", "setup.system_s": "s"}
    for k in KERNELS:
        units[f"kern.{k}.calls"] = "count"
        units[f"kern.{k}.s"] = "s"
        units[f"kern.{k}.bytes"] = "bytes_computed"
    units["kern.total_s"] = "s"
    for c in ASM_CATEGORIES:
        units[f"asm.{c}_s"] = "s"
    units["asm.total_s"] = "s"
    for sub in SUBSYSTEMS:
        units[f"linalg.{sub}.factor_calls"] = "count"
        units[f"linalg.{sub}.factor_s"] = "s"
        units[f"linalg.{sub}.matrix_nnz"] = "count"
        units[f"linalg.{sub}.lu_nnz"] = "count"
    units.update({
        "linalg.solve_check_s": "s", "linalg.failures": "count",
        "solver.steps_attempted": "count", "solver.steps_failed": "count",
        "solver.ch_newton_per_outer": "ratio",
        "solver.phase_evals_per_iterate": "ratio",
        "solver.split.phase_evals_per_iterate": "ratio",
        "solver.mono.phase_evals_per_iterate": "ratio",
        "solver.loop_s": "s",
        "io.vtk_files": "count", "io.vtk_s": "s", "io.csv_s": "s",
        "io.bytes_written": "bytes",
        "trace.split_wall_s": "s", "trace.mono_wall_s": "s",
        "trace.overhead_s": "s", "trace.spans": "count",
    })
    return units


PER_LAYER = per_layer_units()


# -- inputs ------------------------------------------------------------------

def initial_phase(seed: int, n: int):
    """Phase-field initial condition of a seed, as a phi_expr(x, y).

    Seed 0 is the paper's half-domain split: phi = 1 for x >= 1/2, so the
    P1 interpolant crosses 1/2 midway between the vertex columns x_lo and
    x_hi around x = 1/2.  Other seeds move that crossing by a seeded sine
    d(y) of 0.5-2% of a cell width, by setting phi on one of the two
    columns to the value that puts the crossing at the moved position.
    """
    if seed == 0:
        return lambda x, y: 1.0 if x >= 0.5 else 0.0
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.005, 0.02)
    mode = int(rng.integers(1, 4))
    shift = rng.uniform(0.0, 1.0)
    h = 1.0 / n
    x_hi = math.ceil(0.5 * n) * h
    x_lo = x_hi - h

    def phi_expr(x, y):
        # crossing at x_lo + r*h; seed 0 has r = 1/2
        r = 0.5 + amp * math.sin(2.0 * math.pi * (mode * y + shift))
        if abs(x - x_hi) < 0.25 * h and r > 0.5:
            return 0.5 / r
        if abs(x - x_lo) < 0.25 * h and r < 0.5:
            return (0.5 - r) / (1.0 - r)
        return 1.0 if x >= 0.5 else 0.0
    return phi_expr


# -- host speed ----------------------------------------------------------------

class HostProbe:
    """Fixed numpy/scipy work whose time tracks the host's current speed.

    On a host whose cores are shared, speed drifts by up to 2x, within
    seconds as well as over minutes, and CPU time drifts with wall time,
    so no median over one run removes it.  The probe repeats the
    program's own mix: a sparse LU of a two-field system on a GRID x GRID
    grid (the size of the n=16 monolithic system), einsums over the
    workload's cells and COO-to-CSR conversions of their triplets.  A
    sample runs once INTERVAL_S of work has passed, checked after every
    linear solve and time step, and BOUNDARY samples run at every
    repetition and strategy boundary.  A strategy's time is scaled by
    `nominal_s` over the mean of the samples taken during and around it:
    seconds on a host that runs a sample in `nominal_s`, as measured on
    the 2-core Xeon VM the bounds were set on.  The info line keeps the
    raw times.
    """

    GRID = 35
    BOUNDARY = 4
    INTERVAL_S = 0.5

    def __init__(self, repeat: int, nominal_s: float, nc: int):
        m = self.GRID
        self.repeat = repeat
        self.nominal_s = nominal_s
        rng = np.random.default_rng(2024)
        tri = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        lap = sp.kronsum(tri, tri, format="csr")
        eye = sp.identity(m * m, format="csr")
        self.A = sp.bmat([[eye, 1e-2 * lap], [-lap, eye]], format="csc")
        self.b = rng.standard_normal(self.A.shape[0])
        self.X = rng.standard_normal((nc, 6, 3))
        cells = rng.integers(0, m * m, size=(nc, 3))
        self.rows = np.repeat(cells[:, :, None], 3, axis=2).ravel()
        self.cols = np.repeat(cells[:, None, :], 3, axis=1).ravel()
        self.vals = rng.standard_normal(self.rows.size)
        self.splu = spla.splu   # unaffected by the tracer's patch
        self.samples = []
        self.busy = 0.0         # total time spent probing
        self.last = 0.0         # clock at the end of the last sample

    def __call__(self) -> None:
        """Take one sample."""
        t0 = time.perf_counter()
        for _ in range(self.repeat):
            self.splu(self.A).solve(self.b)
            for _ in range(10):
                np.einsum("cqi,cqj->cij", self.X, self.X)
            for _ in range(4):
                sp.coo_matrix((self.vals, (self.rows, self.cols)),
                              shape=self.A.shape).tocsr()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        self.busy += self.last - t0

    def maybe(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self()

    def boundary(self) -> None:
        for _ in range(self.BOUNDARY):
            self()

    def scale(self, first: int) -> float:
        """Host-speed factor over the samples from index `first` on."""
        return self.nominal_s / float(np.mean(self.samples[first:]))


# -- tracing -----------------------------------------------------------------

_INHERIT = object()


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tracer:
    """In-memory spans around the public entry points of each layer."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index]
        self._stack = []      # (span index, assembly category)
        self.kernel_bytes = Counter()
        self.matrix_nnz = Counter()   # per subsystem, largest factored matrix
        self.lu_nnz = Counter()       # per subsystem, largest SuperLU factor
        self.failures = 0

    def open(self, name, category=_INHERIT) -> int:
        if category is _INHERIT:
            category = self._stack[-1][1] if self._stack else None
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append((index, category))
        return index

    def close(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, category=_INHERIT):
        index = self.open(name, category)
        try:
            yield
        finally:
            self.close(index)

    def _category(self):
        return self._stack[-1][1] if self._stack else None

    def _subsystem(self):
        category = self._category()
        return category if category in ("ch", "elas", "flow") else "mono"

    # wrappers ---------------------------------------------------------------

    def _kernel(self, name, fn):
        def traced(*args):
            index = self.open("kern." + name)
            try:
                out = fn(*args)
            finally:
                self.close(index)
            self.kernel_bytes[name] += _nbytes(args) + _nbytes(out)
            return out
        return traced

    def _method(self, category, fn):
        def traced(system, *args, **kwargs):
            own = self._category() or category
            index = self.open("asm." + own, own)
            try:
                return fn(system, *args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _step(self, fn):
        def traced(system, *args, **kwargs):
            index = self.open("solver.step", None)
            try:
                return fn(system, *args, **kwargs)
            finally:
                self.close(index)
        return traced

    def _solve(self, fn):
        def traced(A, b):
            index = self.open("linalg.solve." + self._subsystem())
            try:
                return fn(A, b)
            except linalg.LinearSolveFailure:
                self.failures += 1
                raise
            finally:
                self.close(index)
        return traced

    def _factor(self, fn):
        def traced(A, *args, **kwargs):
            sub = self._subsystem()
            index = self.open("linalg.factor." + sub)
            try:
                lu = fn(A, *args, **kwargs)
            finally:
                self.close(index)
            self.matrix_nnz[sub] = max(self.matrix_nnz[sub], A.nnz)
            self.lu_nnz[sub] = max(self.lu_nnz[sub], lu.nnz)
            return lu
        return traced

    def _writer(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        patches = []
        for k in KERNELS:
            if hasattr(kn, k):
                patches.append((kn, k, self._kernel(k, getattr(kn, k))))
        cls = solvers.ChbSystem
        for method, category in ASSEMBLY_METHODS.items():
            if method in vars(cls):
                patches.append((cls, method,
                                self._method(category, vars(cls)[method])))
        for method in STEP_METHODS:
            if method in vars(cls):
                patches.append((cls, method, self._step(vars(cls)[method])))
        solve = self._solve(linalg.solve_linear)
        patches.append((linalg, "solve_linear", solve))
        if getattr(solvers, "solve_linear", None) is linalg.solve_linear:
            patches.append((solvers, "solve_linear", solve))
        patches.append((spla, "splu", self._factor(spla.splu)))
        patches.append((cli, "write_vtk", self._writer("io.vtk", cli.write_vtk)))
        patches.append((cli, "write_metrics_csv",
                        self._writer("io.csv", cli.write_metrics_csv)))
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, wrapper in patches:
                setattr(obj, name, wrapper)
            yield self
        finally:
            for obj, name, original in saved:
                setattr(obj, name, original)

    # reduction ----------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


def layer_metrics(tracer: Tracer, scale: float) -> dict:
    """Per-layer totals of one traced repetition; times host-scaled."""
    selfs = [dt * scale for dt in tracer.self_times()]
    secs = Counter()
    calls = Counter()
    for (name, _, _, _), dt in zip(tracer.spans, selfs):
        secs[name] += dt
        calls[name] += 1
    m = {"setup.mesh_s": secs["setup.mesh"],
         "setup.system_s": secs["setup.system"]}
    for k in KERNELS:
        m[f"kern.{k}.calls"] = calls["kern." + k]
        m[f"kern.{k}.s"] = secs["kern." + k]
        m[f"kern.{k}.bytes"] = tracer.kernel_bytes[k]
    m["kern.total_s"] = sum(secs["kern." + k] for k in KERNELS)
    for c in ASM_CATEGORIES:
        m[f"asm.{c}_s"] = secs["asm." + c]
    m["asm.total_s"] = sum(secs["asm." + c] for c in ASM_CATEGORIES)
    for sub in SUBSYSTEMS:
        m[f"linalg.{sub}.factor_calls"] = calls["linalg.factor." + sub]
        m[f"linalg.{sub}.factor_s"] = secs["linalg.factor." + sub]
        m[f"linalg.{sub}.matrix_nnz"] = tracer.matrix_nnz[sub]
        m[f"linalg.{sub}.lu_nnz"] = tracer.lu_nnz[sub]
    m["linalg.solve_check_s"] = sum(secs["linalg.solve." + s] for s in SUBSYSTEMS)
    m["linalg.failures"] = tracer.failures
    m["solver.loop_s"] = (secs["solver.step"] + secs["strategy.splitting"]
                          + secs["strategy.monolithic"])
    m["io.vtk_s"] = secs["io.vtk"]
    m["io.csv_s"] = secs["io.csv"]
    m["trace.spans"] = len(tracer.spans) - calls["host.probe"]
    return m


# -- one repetition ----------------------------------------------------------

@dataclass
class StrategyRun:
    strategy: str
    system: object
    states: list
    stats: list
    stop: str
    wall: float         # harness-clock time, host samples left out
    elapsed: float      # harness-clock time, host samples included
    step_walls: list    # like `wall`, per attempted step
    span: int = -1
    scale: float = 1.0  # host-speed factor of the probes around the run


@dataclass
class Rep:
    wall: float = 0.0
    runs: dict = field(default_factory=dict)
    vtk_files: list = field(default_factory=list)
    csv_path: Path | None = None
    scale: float = 1.0  # host-speed factor of all the repetition's probes


def stop_reason(cause) -> str:
    if isinstance(cause, linalg.LinearSolveFailure):
        return "linear_breakdown"
    if isinstance(cause, solvers.NonConvergence):
        return "diverged" if cause.diverged else "max_iter"
    return type(cause).__name__


def set_up(wl: Workload, tracer=None):
    span = tracer.span if tracer else (lambda *a, **k: nullcontext())
    with span("setup.mesh", None):
        mesh = build_unit_square_mesh(wl.n)
    params = MaterialParams(xi=wl.xi)
    with span("setup.system", None):
        systems = {s: solvers.ChbSystem(mesh, params) for s in STRATEGIES}
    return mesh, systems


@contextmanager
def after_solves(hook):
    """Call hook() after every linear solve inside the block."""
    solve = linalg.solve_linear

    def hooked(A, b):
        x = solve(A, b)
        hook()
        return x

    names = [(linalg, "solve_linear")]
    if getattr(solvers, "solve_linear", None) is solve:
        names.append((solvers, "solve_linear"))
    for obj, name in names:
        setattr(obj, name, hooked)
    try:
        yield
    finally:
        for obj, name in names:
            setattr(obj, name, solve)


def run_once(wl: Workload, seed: int, out_dir: Path, probe,
             tracer=None) -> Rep:
    """One repetition of a workload, timed end to end by the harness clock.

    The host speed is sampled before the repetition, during each
    strategy and after it; the probe's time is left out of every wall
    time (and, when traced, sits in "host.probe" spans).
    """
    rep = Rep()
    clock = time.perf_counter
    first_probe = len(probe.samples)
    probe.boundary()
    busy = probe.busy
    t_start = clock()
    mesh, systems = set_up(wl, tracer)
    records = []
    for strategy in STRATEGIES:
        system = systems[strategy]
        seeded = wl.seeded_mono or strategy == "splitting"
        state0 = system.initial_state(initial_phase(seed if seeded else 0, wl.n))
        states = [state0]
        config = solvers.SolverConfig(strategy=strategy, num_steps=wl.steps)
        first = len(probe.samples) - probe.BOUNDARY

        def sample():
            if tracer:
                with tracer.span("host.probe", None):
                    probe.maybe()
            else:
                probe.maybe()

        def on_step(st, _stats):
            marks.append((clock(), probe.busy))
            states.append(st)
            sample()

        root = tracer.open("strategy." + strategy, None) if tracer else -1
        marks = [(clock(), probe.busy)]
        with after_solves(sample):
            try:
                _, stats = solvers.advance_simulation(system, state0, config,
                                                      on_step=on_step)
                stop = "converged"
            except solvers.SimulationFailed as exc:
                stats, stop = exc.stats, stop_reason(exc.cause)
        end = (clock(), probe.busy)
        if tracer:
            tracer.close(root)
        # a failed step ends when the exception arrives; the last
        # converged step absorbs the return from advance_simulation
        if len(stats) >= len(marks):
            marks.append(end)
        else:
            marks[-1] = end
        step_walls = [(c1 - c0) - (b1 - b0)
                      for (c0, b0), (c1, b1) in zip(marks, marks[1:])]
        rep.runs[strategy] = StrategyRun(
            strategy, system, states, stats, stop, sum(step_walls),
            end[0] - marks[0][0], step_walls, root)
        if wl.io:
            run_dir = out_dir / f"base_{strategy}"
            run_dir.mkdir(parents=True, exist_ok=True)
            for st in states:
                path = run_dir / f"state_{st.n:04d}.vtk"
                cli.write_vtk(st, mesh, path)
                rep.vtk_files.append(path)
        probe.boundary()
        rep.runs[strategy].scale = probe.scale(first)
        records.append(cli.RunRecord(
            param_name="none", param_value=0.0, strategy=strategy,
            converged=stop == "converged",
            outer_iters=int(sum(s.outer_iters for s in stats)),
            inner_newton_iters=int(sum(s.newton_total for s in stats)),
            wall_seconds=rep.runs[strategy].wall,
            solver_fault=stop == "linear_breakdown"))
    if wl.io:
        rep.csv_path = out_dir / "metrics.csv"
        cli.write_metrics_csv(records, rep.csv_path)
    rep.wall = clock() - t_start - (probe.busy - busy)
    rep.scale = probe.scale(first_probe)
    return rep


# -- checks ------------------------------------------------------------------

def counts(rep: Rep) -> dict:
    split = rep.runs["splitting"].stats
    mono = rep.runs["monolithic"].stats
    return {
        "split_outer_iters": int(sum(s.outer_iters for s in split)),
        "split_newton_iters": int(sum(s.newton_total for s in split)),
        "mono_newton_iters": int(sum(s.newton_total for s in mono)),
        "mono_stop": rep.runs["monolithic"].stop,
        "split_stop": rep.runs["splitting"].stop,
    }


def check_rep(wl: Workload, seed: int, rep: Rep):
    """Verify the outputs of one repetition.

    Returns (problems, failed_steps): a list of messages and, per strategy,
    the set of step numbers that failed to converge or failed a check.
    """
    problems = []
    failed = {s: set() for s in STRATEGIES}

    def fail(strategy, step, message):
        problems.append(f"{strategy} step {step}: {message}")
        failed[strategy].add(step)

    for strategy, run in rep.runs.items():
        for st in run.stats:
            if not st.converged:
                failed[strategy].add(st.step)
        reported = sum(st.wall_seconds for st in run.stats)
        if run.elapsed < reported:
            fail(strategy, len(run.stats), f"harness wall {run.elapsed:.3f}s "
                 f"below reported {reported:.3f}s")
        system = run.system
        ones = np.ones(system.nv)
        mass0 = ones @ (system.M @ run.states[0].phi)
        for prev, cur in zip(run.states[:-1], run.states[1:]):
            drift = abs(ones @ (system.M @ cur.phi) - mass0)
            if drift > CONSERVE_TOL:
                fail(strategy, cur.n, f"mass drift {drift:.3e}")
            cell = np.abs(system.flow_cell_residual(prev, cur)).max()
            if cell > CONSERVE_TOL:
                fail(strategy, cur.n, f"flow cell residual {cell:.3e}")

    split, mono = rep.runs["splitting"], rep.runs["monolithic"]
    if split.stop != "converged":
        problems.append(f"splitting stopped: {split.stop}")
    if wl.compare or mono.stop == "converged":
        if mono.stop != "converged":
            problems.append(f"monolithic stopped: {mono.stop}")
        for ss, ms in zip(split.states[1:], mono.states[1:]):
            worst = max(np.abs(getattr(ss, f) - getattr(ms, f)).max()
                        for f in ("phi", "u", "p"))
            if worst > AGREE_TOL:
                fail("splitting", ss.n, f"strategies differ by {worst:.3e}")
                failed["monolithic"].add(ms.n)

    got = counts(rep)
    for key, want in wl.expected.items():
        if (seed == 0 or (key.startswith("mono") and not wl.seeded_mono)) \
                and got[key] != want:
            problems.append(f"seed {seed} {key} = {got[key]}, expected {want}")
    if wl.expected.get("mono_stop") == "diverged" and len(mono.stats) != 1:
        problems.append("monolithic should fail at step 1")

    if wl.io:
        expected_files = len(split.states) + len(mono.states)
        sizes = [p.stat().st_size if p.is_file() else 0 for p in rep.vtk_files]
        if len(sizes) != expected_files or min(sizes, default=0) == 0:
            problems.append("missing or empty VTK output")
        with open(rep.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if (",".join(rows[0]) != cli.CSV_HEADER or len(rows) != 3
                or [r[2] for r in rows[1:]] != list(STRATEGIES)):
            problems.append("metrics CSV does not match the runs")
    return problems, failed


# -- measurement loop --------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


def strategy_time(reps, strategy) -> float:
    """Sum over time steps of each step's median host-scaled time.

    A slowdown of a few seconds hits a few steps of one repetition; the
    per-step median across repetitions drops it where a median of whole
    repetitions would not.  Every repetition attempts the same steps.
    """
    walls = np.array([np.multiply(r.runs[strategy].step_walls,
                                  r.runs[strategy].scale) for r in reps])
    return float(np.median(walls, axis=0).sum())


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    backend = kn.active_backend() if hasattr(kn, "active_backend") else "numpy"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "kernels": backend,
        "numpy": np.__version__,
    }


def setup_time(wl: Workload) -> float:
    """Median time of mesh plus both systems over repeated set-ups."""
    set_up(wl)  # warm lazy imports and allocator
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        set_up(wl)
        samples.append(time.perf_counter() - t0)
    return _median(samples)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> tuple[dict, dict]:
    """Repeat the workload for about `seconds`; return (info, result).

    Without tracing every repetition is timed.  With tracing, untraced
    and traced repetitions alternate, and the difference of their medians
    is the tracing overhead.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = HostProbe(*wl.probe, nc=2 * wl.n * wl.n)
    run_once(WARMUP, 0, out_dir / "warmup", probe)
    first = len(probe.samples) - probe.BOUNDARY
    setup_raw = setup_time(wl)
    probe.boundary()
    setup_s = setup_raw * probe.scale(first)
    plain, traced, tracers = [], [], []
    problems, first_counts = [], None
    attempted = failed_ops = steps_attempted = steps_failed = 0
    t_begin = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        batch = [None, Tracer()] if trace else [None]
        for tracer in batch:
            gc.collect()
            if tracer is None:
                rep = run_once(wl, seed, out_dir, probe)
            else:
                with tracer.installed():
                    rep = run_once(wl, seed, out_dir, probe, tracer)
            found, failed = check_rep(wl, seed, rep)
            got = counts(rep)
            if first_counts is None:
                first_counts = got
            elif got != first_counts:
                found.append(f"counts changed between repetitions: {got}")
            attempted += 1
            failed_ops += bool(found)
            problems += found
            for s, run in rep.runs.items():
                steps_attempted += len(run.stats)
                steps_failed += len(failed[s])
            (plain if tracer is None else traced).append(rep)
            if tracer is not None:
                tracers.append(tracer)
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() - t_begin + cycle > seconds:
            break

    result = {"correct": failed_ops == 0, "attempted": attempted,
              "failed": failed_ops}
    info = {"machine": machine_info(), "workload": wl.name, "seed": seed,
            "repetitions": attempted, "counts": first_counts,
            "raw_walls_s": [[round(r.runs[s].wall, 4) for s in STRATEGIES]
                            for r in plain + traced],
            "probe_samples": len(probe.samples),
            "probe_median_s": _median(probe.samples or [0.0]),
            "problems": problems[:20]}
    if not trace:
        split_s = strategy_time(plain, "splitting")
        mono_s = strategy_time(plain, "monolithic")
        rest = _median([(r.wall - r.runs["splitting"].wall
                         - r.runs["monolithic"].wall) * r.scale for r in plain])
        m = {
            "setup_s": setup_s,
            "wall_s": rest + split_s + mono_s,
            "split_wall_s": split_s,
            "mono_wall_s": mono_s,
            "split_outer_iters": first_counts["split_outer_iters"],
            "split_newton_iters": first_counts["split_newton_iters"],
            "mono_newton_iters": first_counts["mono_newton_iters"],
            "steps_ok_frac": (steps_attempted - steps_failed) / steps_attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        m = traced_metrics(plain, traced, tracers, first_counts)
        m["solver.steps_attempted"] = steps_attempted // attempted
        m["solver.steps_failed"] = steps_failed // attempted
        info["accounting"] = accounting(traced[-1], tracers[-1])
        tracers[-1].write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")
        units = PER_LAYER
    result["metrics"] = {k: {"value": m[k], "unit": units[k]} for k in units}
    return info, result


def traced_metrics(plain, traced, tracers, c) -> dict:
    per_rep = [layer_metrics(t, r.scale) for t, r in zip(tracers, traced)]
    # times vary from repetition to repetition, counts do not
    m = {k: _median([r[k] for r in per_rep]) if PER_LAYER[k] == "s"
         else per_rep[-1][k] for k in per_rep[0]}
    rep, tracer = traced[-1], tracers[-1]
    m["solver.ch_newton_per_outer"] = (c["split_newton_iters"]
                                       / max(c["split_outer_iters"], 1))
    evals = per_strategy_calls(tracer, "kern.phase_cell_integrals")
    iters = {"splitting": c["split_outer_iters"],
             "monolithic": c["mono_newton_iters"]}
    m["solver.split.phase_evals_per_iterate"] = (
        evals["splitting"] / max(iters["splitting"], 1))
    m["solver.mono.phase_evals_per_iterate"] = (
        evals["monolithic"] / max(iters["monolithic"], 1))
    m["solver.phase_evals_per_iterate"] = (
        sum(evals.values()) / max(sum(iters.values()), 1))
    m["io.vtk_files"] = len(rep.vtk_files)
    m["io.bytes_written"] = sum(p.stat().st_size for p in rep.vtk_files) + (
        rep.csv_path.stat().st_size if rep.csv_path else 0)
    split_t = strategy_time(traced, "splitting")
    mono_t = strategy_time(traced, "monolithic")
    m["trace.split_wall_s"] = split_t
    m["trace.mono_wall_s"] = mono_t
    m["trace.overhead_s"] = (split_t + mono_t) - (
        strategy_time(plain, "splitting") + strategy_time(plain, "monolithic"))
    return m


def per_strategy_calls(tracer: Tracer, name: str) -> dict:
    """Number of spans called `name` under each strategy's root span."""
    owner = [None] * len(tracer.spans)
    out = Counter()
    for i, (span_name, _, _, parent) in enumerate(tracer.spans):
        if span_name.startswith("strategy."):
            owner[i] = span_name.split(".", 1)[1]
        elif parent >= 0:
            owner[i] = owner[parent]
        if span_name == name and owner[i]:
            out[owner[i]] += 1
    return out


def accounting(rep: Rep, tracer: Tracer) -> dict:
    """Per strategy: harness wall, sum of span self times, layer shares."""
    selfs = tracer.self_times()
    out = {}
    for strategy, run in rep.runs.items():
        inside = [False] * len(tracer.spans)
        shares = defaultdict(float)
        for i, (name, _, _, parent) in enumerate(tracer.spans):
            inside[i] = i == run.span or (parent >= 0 and inside[parent])
            if inside[i] and name != "host.probe":
                layer = ("linalg.factor" if name.startswith("linalg.factor")
                         else name.split(".")[0])
                shares[layer] += selfs[i]
        total = sum(shares.values())
        out[strategy] = {
            "wall_s": run.wall, "self_sum_s": total,
            "shares": {k: round(v / total, 4) for k, v in sorted(shares.items())},
        }
    return out
