"""The three served workloads: inputs, set-up, requests and checks.

Each workload is a pure function of its seed: job ``i`` is derived from
``(seed, i)`` alone, so two runs with one seed send the same request
list in the same order.  Jobs come in fixed *blocks* whose make-up never
changes with the seed (only compile seeds, random netlists, renamings,
edits and dies do), and a run always ends on a block boundary, so every
run measures the same traffic mix.  Why each workload exists, and which
layer each one loads, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from catalog import (
    apply_ops,
    build,
    check_artifact,
    check_die,
    copy_netlist,
    edit_ops,
)
from repro.pnr import DefectViolation, PnrError, sample_defect_map
from repro.service import ArtifactStore, CompileOptions, CompileService

#: The closed loop: this many client threads, each sending its next
#: request only when the previous one returned.
CLIENTS = 2
#: Service shape shared by every workload.
SERVICE = {"workers": 2, "isolation": "thread"}


@dataclass
class Request:
    """One timed request, how the service served it, what the check found."""

    index: int
    kind: str  # compile | edit | die
    #: memory | disk | coalesced | cold | incremental | repaired | degraded,
    #: or fallback (an edit recompiled cold), die_cold (a die compiled
    #: cold) and scrapped (an unroutable die).
    path: str
    latency_s: float
    #: What the check needs; dropped once the check has run.
    payload: tuple = ()
    error: str | None = None
    #: SHA-256 over the served bitstreams, set by the check.
    digest: str | None = None
    #: ``(artifact key, cycle time, wirelength)`` for the quality
    #: geomeans, set by the check; None when the request does not count.
    quality: tuple | None = None


@dataclass
class Outcome:
    """The completed requests of one phase plus any failed jobs."""

    requests: list[Request] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _path(res) -> str:
    """Serving path of a ServiceResult, from its flags."""
    if res.degraded:
        return "degraded"
    if res.coalesced:
        return "coalesced"
    if res.from_store:
        return "disk"
    if res.cached:
        return "memory"
    if res.repaired:
        return "repaired"
    if res.incremental:
        return "incremental"
    return "cold"


def _digest(streams) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(stream)
    return h.hexdigest()


def _seeded(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _settle(req: Request, check) -> None:
    """Run one request's check, recording any failure on the request."""
    try:
        check()
    except Exception as e:  # noqa: BLE001 - any failure is an error
        req.error = f"{type(e).__name__}: {e}"


def _compiled_from(netlist, res) -> None:
    if res.result.source is not netlist:
        raise AssertionError("artifact was not compiled from this request's netlist")


class Workload:
    """Base: ``setup`` builds the served state, ``run_job`` sends one job."""

    name = ""
    #: Jobs per block; a run ends only on a block boundary.
    block = 1
    #: Job counts of the timed segments that tile one block.  Between
    #: segments, with no request in flight, the untimed check proves and
    #: releases that segment's artifacts, so memory does not grow with
    #: the length of the run.
    segments = (1,)

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.svc: CompileService | None = None
        self._dirs: list[str] = []

    def _fresh_dir(self) -> str:
        path = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        self._dirs.append(path)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, index: int):
        raise NotImplementedError

    def run_job(self, index: int, job, out: Outcome) -> None:
        raise NotImplementedError

    def check(self, requests: list[Request], digest: bool, verify: bool = True) -> None:
        """Prove each request's artifact; set ``error`` and ``quality``,
        and with ``digest`` also the bitstream ``digest``.  ``verify=False``
        skips the simulation sweeps, for a phase whose every artifact
        another phase proves byte for byte."""
        raise NotImplementedError

    def final_errors(self) -> list[str]:
        """Violations of the service's accounting identities."""
        stats = self.svc.stats()
        bad = []
        if stats["submissions"] != stats["settled"] + stats["shed"] + stats["pending"]:
            bad.append(f"submissions {stats['submissions']} != settled + shed + pending")
        for tier in ("cache", "store"):
            books = stats[tier]
            if books is not None and books["lookups"] != books["hits"] + books["misses"]:
                bad.append(f"{tier}: lookups != hits + misses")
        return bad

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def cleanup(self) -> None:
        self.close()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


# ----------------------------------------------------------------------
# cold_mix: every request a distinct key, nothing ever hits
# ----------------------------------------------------------------------

#: One block: pairs of one design under two compile seeds, in a fixed
#: order.  The two clients pick up both halves of a pair together and
#: contend evenly, so a design's latency does not depend on which other
#: design happened to run beside it.  rca4 is the mode (10 of 32) with
#: as many cheaper jobs as dearer ones around it, so the median lands
#: inside one design's latency cluster; with an even, shuffled mix it
#: fell between two design sizes and moved by 30% from seed to seed
#: (measured on a shared 2-vCPU virtual machine).
_COLD_BLOCK = tuple(d for d in (
    ("rca", 4), ("mp", 2), ("rca", 4), ("mul", 4), ("rand", 5, 20), ("rca", 4),
    ("rca", 16), ("mul", 2), ("rca", 4), ("rca", 8), ("fa",), ("rca", 4),
    ("rca", 12), ("mul", 3), ("acc", 8), ("rand", 21, 40),
) for d in (d, d))
#: Store byte budget, well below a run's total output, so publishes evict.
COLD_STORE_BYTES = 8 << 20
#: Set-up compiles one small design of each kind, so lazy initialisation
#: is paid before the timed phase.
_WARMUP = (("rca", 4), ("mul", 3), ("fa",), ("mp", 2), ("acc", 8))


class ColdMix(Workload):
    name = "cold_mix"
    block = len(_COLD_BLOCK)
    segments = (block,)

    def setup(self) -> None:
        self.close()
        store = ArtifactStore(self._fresh_dir(), max_bytes=COLD_STORE_BYTES)
        self.svc = CompileService(**SERVICE, store=store)
        for design in _WARMUP:
            self.svc.compile(build(design), CompileOptions(seed=0))

    def job(self, index: int):
        design = _COLD_BLOCK[index % self.block]
        if design[0] == "rand":
            # Both halves of a pair draw the same netlist.
            rng = _seeded("cold", self.seed, index // 2)
            design = ("rand", rng.randrange(1 << 30), rng.randint(*design[1:]))
        # Request seeds 1, 2, ... never repeat, so every key is distinct.
        seed = 1 + index + 1_000_003 * (self.seed % 2000)
        if design == ("rca", 16):
            return design, CompileOptions(seed=seed, max_side=24)
        return design, CompileOptions(seed=seed)

    def run_job(self, index, job, out):
        design, options = job
        netlist = build(design)
        t0 = time.perf_counter()
        res = self.svc.submit(netlist, options).result()
        latency = time.perf_counter() - t0
        out.requests.append(
            Request(index, "compile", _path(res), latency, (design, netlist, res)))

    def check(self, requests, digest, verify=True):
        for req in requests:
            design, netlist, res = req.payload
            if req.path != "cold":
                req.error = f"expected a cold compile, served {req.path}"
                continue
            if verify:
                _settle(req, lambda: (_compiled_from(netlist, res), check_artifact(res.result)))
            if digest:
                req.digest = _digest(res.bitstreams())
            # Random netlists change shape with the seed; only designs of
            # fixed structure enter the quality geomeans.
            if design[0] != "rand":
                stats = res.result.stats
                req.quality = (res.key, stats.cycle_time, stats.wirelength)


# ----------------------------------------------------------------------
# hot_repeat: a Zipf-popular set served from memory and disk
# ----------------------------------------------------------------------

#: The popular set, most popular first, with fixed compile seeds: the
#: keys and their artifacts are the same for every seed.  The seed picks
#: the request sequence and every request's renaming.
_HOT_SET = (
    ("rca", 4), ("mul", 3), ("fa",), ("rand", 101, 10), ("acc", 8), ("mp", 2),
    ("rca", 8), ("mul", 2), ("rand", 102, 20), ("mul", 4), ("rand", 103, 30), ("rand", 104, 40),
)
HOT_ZIPF_S = 1.2
#: Memory-tier capacity, below the working set: about four requests in
#: five hit memory and the tail comes from disk.
HOT_CACHE = 7


class HotRepeat(Workload):
    name = "hot_repeat"
    block = 50
    segments = (block,)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.options = [CompileOptions(seed=k + 1) for k in range(len(_HOT_SET))]
        self.weights = [1.0 / (r + 1) ** HOT_ZIPF_S for r in range(len(_HOT_SET))]
        self.reference = {}
        self._proven = {}

    def setup(self) -> None:
        """Compile the popular set into a fresh store, then open a fresh
        service on it whose memory tier starts empty."""
        self.close()
        root = self._fresh_dir()
        with CompileService(**SERVICE, store=root) as warm:
            netlists = [build(d) for d in _HOT_SET]
            futures = [warm.submit(nl, o) for nl, o in zip(netlists, self.options)]
            self.reference = {}
            for k, (nl, fut) in enumerate(zip(netlists, futures)):
                res = fut.result()
                bits = res.bitstreams()
                self.reference[k] = (
                    bits,
                    _digest(bits),
                    [res.input_wires.get(p) for p in nl.inputs],
                    [res.output_wires.get(p) for p in nl.outputs],
                    (k, res.result.stats.cycle_time, res.result.stats.wirelength),
                )
        self.svc = CompileService(**SERVICE, cache_capacity=HOT_CACHE, store=root)
        self._proven = {}

    def job(self, index):
        rng = _seeded("hot", self.seed, index)
        key = rng.choices(range(len(_HOT_SET)), self.weights)[0]
        return key, rng.randrange(1 << 30)

    def run_job(self, index, job, out):
        key, rename = job
        netlist = copy_netlist(build(_HOT_SET[key]), rename=rename)
        t0 = time.perf_counter()
        res = self.svc.submit(netlist, self.options[key]).result()
        latency = time.perf_counter() - t0
        out.requests.append(Request(index, "compile", _path(res), latency, (key, netlist, res)))

    def check(self, requests, digest, verify=True):
        # Comparing against the set-up reference is cheap and is what
        # makes the digest meaningful, so it always runs.
        for req in requests:
            key, netlist, res = req.payload
            bits, ref_digest, in_wires, out_wires, quality = self.reference[key]
            if [res.input_wires.get(p) for p in netlist.inputs] != in_wires or [
                res.output_wires.get(p) for p in netlist.outputs
            ] != out_wires:
                req.error = "pin map does not match the set-up reference for this key"
            # A memory hit hands back the very object already proven.
            elif self._proven.get(key) is not res.result:
                if res.bitstreams() != bits:
                    req.error = "served bitstream differs from the set-up reference"
                else:
                    self._proven[key] = res.result
            req.digest = ref_digest
            req.quality = quality

    def final_errors(self):
        bad = super().final_errors()
        compiles = self.svc.stats()["compiles"]
        if compiles:
            bad.append(f"hot_repeat compiled {compiles} times in the timed phase")
        return bad


# ----------------------------------------------------------------------
# edit_repair: incremental edit sessions and per-die repair
# ----------------------------------------------------------------------

EDIT_BASES = (("rca", 8), ("acc", 8))
DIE_DESIGN = ("rca", 8)
#: Bases and golden compile with one fixed seed, so every seed serves
#: the same golden and only the edits and dies vary.
EDIT_OPTIONS = CompileOptions(seed=1)
#: Steps per edit session, each step 1-3 gate edits.
EDIT_STEPS = 2
#: (cell, wire, stuck-row) failure probabilities of the two die lots.
DIE_DENSITY = {"low": (0.002, 0.0005, 0.00025), "high": (0.006, 0.0015, 0.00075)}
#: One block: four edit sessions, then 28 dies, six in seven at low
#: defect density.  Sessions and dies run in separate segments, so each
#: contends only with its own kind and a repair's latency does not hang
#: on whether a cold compile happened to run beside it.  Warm
#: low-density repairs are most of the requests and hold the median;
#: edits that fall back to a cold compile hold the p90.
_EDIT_BLOCK = (
    ("session", ("rca", 8)), ("session", ("acc", 8)),
    ("session", ("rca", 8)), ("session", ("acc", 8)),
    *([("die", "low")] * 6 + [("die", "high")]) * 4,
)
#: Upper bound on jobs a run can send; edits are drawn up front so no
#: two sessions produce the same design.
EDIT_MAX_JOBS = 1200


class EditRepair(Workload):
    name = "edit_repair"
    block = len(_EDIT_BLOCK)
    # The sessions and the dies are separate segments, so a die never
    # runs beside an edit's cold fallback.
    segments = (4, block - 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._jobs = self._draw_jobs()

    def _draw_jobs(self) -> list:
        rng = _seeded("edit", self.seed)
        bases = {b: build(b) for b in EDIT_BASES}
        seen = set()
        jobs = []
        for index in range(EDIT_MAX_JOBS):
            kind, arg = _EDIT_BLOCK[index % self.block]
            if kind == "die":
                jobs.append(("die", arg, rng.randrange(1 << 30)))
                continue
            chain, ops = [], ()
            for _ in range(EDIT_STEPS):
                while True:
                    step = edit_ops(apply_ops(bases[arg], ops), rng, rng.randint(1, 3))
                    edited = _effective(bases[arg], ops + step)
                    if edited and edited not in seen:
                        break
                seen.add(edited)
                ops = ops + step
                chain.append(ops)
            jobs.append(("session", arg, tuple(chain)))
        return jobs

    def setup(self) -> None:
        self.close()
        self.svc = CompileService(**SERVICE, store=self._fresh_dir())
        for base in EDIT_BASES:
            res = self.svc.compile(build(base), EDIT_OPTIONS)
            if base == DIE_DESIGN:
                self.shape = (res.result.array.n_rows, res.result.array.n_cols)

    def job(self, index):
        return self._jobs[index]

    def run_job(self, index, job, out):
        if job[0] == "die":
            _, lot, die_seed = job
            cell, wire, stuck = DIE_DENSITY[lot]
            die = sample_defect_map(
                *self.shape, cell_fail=cell, wire_fail=wire, stuck_fail=stuck,
                seed=die_seed,
            )
            netlist = build(DIE_DESIGN)
            t0 = time.perf_counter()
            try:
                res = self.svc.compile_for_die(netlist, die, EDIT_OPTIONS)
            except DefectViolation:
                raise
            except PnrError:
                # An unroutable die is an answer: scrap it.
                latency = time.perf_counter() - t0
                out.requests.append(Request(index, "die", "scrapped", latency))
                return
            latency = time.perf_counter() - t0
            path = _path(res)
            out.requests.append(Request(
                index, "die", "die_cold" if path == "cold" else path, latency, (die, res)))
            return
        _, base, chain = job
        session = self.svc.open_session(build(base), EDIT_OPTIONS)
        for ops in chain:
            netlist = apply_ops(build(base), ops)
            t0 = time.perf_counter()
            res = session.apply(netlist)
            latency = time.perf_counter() - t0
            path = "fallback" if session.steps[-1].fallback else _path(res)
            out.requests.append(Request(index, "edit", path, latency, (netlist, res)))

    def check(self, requests, digest, verify=True):
        for req in requests:
            if not req.payload:
                continue  # a scrapped die: nothing was served
            if req.kind == "die":
                die, res = req.payload
                if verify:
                    _settle(req, lambda: check_die(res.result, die))
            else:
                netlist, res = req.payload
                if verify:
                    _settle(req, lambda: (_compiled_from(netlist, res),
                                          check_artifact(res.result)))
            if digest:
                req.digest = _digest(res.bitstreams())
            stats = res.result.stats
            req.quality = (res.key, stats.cycle_time, stats.wirelength)


def _effective(base, ops) -> frozenset:
    """The cells an op chain leaves different from ``base``."""
    edited = apply_ops(base, ops)
    return frozenset(
        (c.name, c.kind, c.inputs)
        for c in edited.cells
        if (c.kind, c.inputs) != (base.cell(c.name).kind, base.cell(c.name).inputs)
    )


WORKLOADS = {w.name: w for w in (ColdMix, HotRepeat, EditRepair)}
