"""Seeded-mutant harness: which lint rules catch bugs the tests miss.

Each mutant plants one bug, written in a form a lint rule's catalogue
row or golden fixture names, into a real ``src/repro`` module.  For
every mutant the harness copies the repository (without ``.git``) to a
temporary directory and applies the edit there.  It then runs the rule
over the copy's ``src/repro`` and the tier-1 suite without the linter's
own tests, one process at a time.  A rule earns its place only if it
flags a mutant that the suite misses.

Not collected by pytest (the file name does not start with ``test_``).
Run it from the repository root::

    make lint-mutants                                  # every mutant
    python tests/lint_mutants.py --rule DET102         # one rule
    python tests/lint_mutants.py --lint-only           # rule column only

A mutant whose rule is no longer registered reports ``deleted`` in the
rule column; its suite column is still measured.  The full table takes
roughly an hour on a 2-core host: a caught mutant stops at the first
failing test, a missed one runs the whole suite.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock bound on one suite run; a timeout counts as caught.
SUITE_TIMEOUT_S = 15 * 60

#: Tests that run the linter itself over the package: a mutant they
#: fail was caught by the rule, not by the suite.
LINT_TESTS = (
    "--ignore-glob=tests/test_analysis_*",
    "--deselect=tests/test_cli.py::test_lint_command_clean_tree",
)


class Mutant(NamedTuple):
    """One planted bug: ``anchor`` (exactly once in ``relpath``, which is
    relative to ``src/repro``) becomes ``replacement``."""

    rule: str
    relpath: str
    anchor: str
    replacement: str
    why: str


#: ``JobAllocation``'s per-lender seal maintenance, its seal check up to
#: the per-lender comparison, and that comparison: the INV001 mutants
#: break the maintenance and drop the comparison in one edit.
_LENDER_MB_MAINTENANCE = (
    "            self._lender_mb[lender] = self._lender_mb.get(lender, 0) + delta\n"
    "            if self._lender_mb[lender] == 0:\n"
    "                del self._lender_mb[lender]\n"
)
_CHECK_SEAL_HEAD = (
    "\n"
    "    def check_seal(self) -> None:\n"
    '        """Raise ``ValueError`` if the sealed caches drifted from the maps."""\n'
    "        if self._total_local is None:\n"
    "            return\n"
    "        if self._total_local != sum(self.local_mb.values()):\n"
    "            raise ValueError(\n"
    '                f"sealed total_local {self._total_local} != "\n'
    '                f"{sum(self.local_mb.values())}"\n'
    "            )\n"
    "        brute_remote = {\n"
    "            node: sum(m.values()) for node, m in self.remote_mb.items() if m\n"
    "        }\n"
    "        cached = {n: mb for n, mb in (self._remote_on or {}).items() if mb}\n"
    "        if cached != brute_remote:\n"
    '            raise ValueError(f"sealed remote_on {cached} != {brute_remote}")\n'
    "        if self._total_remote != sum(brute_remote.values()):\n"
    "            raise ValueError(\n"
    '                f"sealed total_remote {self._total_remote} != "\n'
    '                f"{sum(brute_remote.values())}"\n'
    "            )\n"
)
_LENDER_MB_CHECK = (
    "        brute_lenders = dict(self.lenders())\n"
    "        cached_lenders = {n: mb for n, mb in (self._lender_mb or {}).items() if mb}\n"
    "        if cached_lenders != brute_lenders:\n"
    "            raise ValueError(\n"
    '                f"sealed lender_mb {cached_lenders} != {brute_lenders}"\n'
    "            )\n"
)


MUTANTS: Tuple[Mutant, ...] = (
    # ------------------------------------------------------------ DET001
    Mutant(
        "DET001", "scheduler/controller.py",
        "    def _on_sched(self, engine: Engine, ev: Event) -> None:\n"
        "        self._sched_scheduled = False\n",
        "    def _on_sched(self, engine: Engine, ev: Event) -> None:\n"
        "        import time\n"
        "        self._sched_scheduled = False\n"
        "        if time.monotonic() - getattr(self, '_pass_wall', -1.0) < 1e-3:\n"
        "            self._request_sched(engine.now + self.config.sched_interval)\n"
        "            return\n"
        "        self._pass_wall = time.monotonic()\n",
        "sched passes are throttled by host time, so the schedule depends "
        "on how fast the host runs",
    ),
    Mutant(
        "DET001", "policies/dynamic.py",
        "        self._monitor_rng = ensure_rng(monitor_seed)\n",
        "        import time\n"
        "        self._monitor_rng = ensure_rng(monitor_seed or time.time_ns())\n",
        "the default noisy Monitor is seeded from the wall clock, so noisy "
        "dynamic runs differ on every rerun",
    ),
    Mutant(
        "DET001", "traces/pipeline.py",
        "    return Workload(\n"
        "        jobs=jobs,\n"
        "        profiles=list(pool),\n"
        "        meta={\n"
        '            "kind": "synthetic",\n',
        "    import time\n"
        "    return Workload(\n"
        "        jobs=jobs,\n"
        "        profiles=list(pool),\n"
        "        meta={\n"
        '            "generated_at": time.time(),\n'
        '            "kind": "synthetic",\n',
        "a synthetic workload is stamped with the host time, so `repro "
        "generate --out` files differ between identical-seed runs",
    ),
    # ------------------------------------------------------------ DET002
    Mutant(
        "DET002", "policies/dynamic.py",
        "            noise = 1.0 + self._monitor_rng.normal(0.0, self.monitor_noise)\n",
        "            noise = 1.0 + np.random.normal(0.0, self.monitor_noise)\n",
        "Monitor noise comes from numpy's unseeded global stream, so "
        "`monitor_seed` no longer fixes a noisy run",
    ),
    Mutant(
        "DET002", "traces/pipeline.py",
        "    large_mask = rng.random(n) < frac_large\n",
        "    large_mask = np.random.random(n) < frac_large\n",
        "the large-memory mix of a synthetic trace ignores the seed",
    ),
    Mutant(
        "DET002", "traces/pipeline.py",
        "        idx = r_week.choice(len(gjobs), size=scale_jobs, replace=False)\n",
        "        import random\n"
        "        idx = random.sample(range(len(gjobs)), scale_jobs)\n",
        "a scaled Grizzly week subsamples its jobs with stdlib `random`, "
        "so the trace changes on every run",
    ),
    # ----------------------------------------------------------- UNIT001
    Mutant(
        "UNIT001", "traces/workload.py",
        "            request_mb = max(int(round(req_kb * cores_per_node / 1024)), 1)\n",
        "            request_mb = req_kb * cores_per_node / 1024\n",
        "an SWF job's request becomes fractional MB, which the integer "
        "ledgers truncate",
    ),
    Mutant(
        "UNIT001", "traces/workload.py",
        "            peak_mb = max(int(round(used_kb * cores_per_node / 1024)), 1)\n",
        "            peak_mb = used_kb * cores_per_node / 1024\n",
        "an SWF job's usage trace holds fractional MB, so Monitor readings "
        "and resize deltas stop being integers",
    ),
    # ----------------------------------------------------------- UNIT002
    Mutant(
        "UNIT002", "slowdown/model.py",
        "        if math.isclose(self.distance_penalty, 0.0, abs_tol=1e-12):\n",
        "        if self.distance_penalty == 0.0:\n",
        "a distance penalty computed as a near-zero float is priced, so "
        "slowdowns drift in the last bits",
    ),
    Mutant(
        "UNIT002", "metrics/response.py",
        "        if qa > 0 and np.isfinite(qa) and np.isfinite(qb):\n",
        "        if qa > 0 and np.isfinite(qa) and np.isfinite(qb) and qb / qa != 1.0:\n",
        "equal quantiles are skipped by exact float equality, so identical "
        "distributions report a NaN gap instead of 0",
    ),
    # ------------------------------------------------------------- PY001
    Mutant(
        "PY001", "policies/dynamic.py",
        "    def _rank_scales(self, job: Job, n_ranks: int) -> Optional[np.ndarray]:\n",
        "    def _rank_scales(self, job: Job, n_ranks: int,\n"
        "                     _memo: Dict[int, Optional[np.ndarray]] = {},\n"
        "                     ) -> Optional[np.ndarray]:\n"
        "        if job.jid not in _memo:\n"
        "            _memo[job.jid] = self._rank_scales_of(job, n_ranks)\n"
        "        return _memo[job.jid]\n"
        "\n"
        "    def _rank_scales_of(self, job: Job, n_ranks: int) -> Optional[np.ndarray]:\n",
        "the rank-scale memo is a shared default keyed by job id, so a "
        "later simulation in the process reuses another workload's scales",
    ),
    Mutant(
        "PY001", "scheduler/queue.py",
        "    def head(self, depth: int) -> List[Job]:\n"
        '        """The first ``depth`` jobs in priority order (a copy)."""\n'
        "        return list(self._sorted()[:depth])\n",
        "    def head(self, depth: int, out: List[Job] = []) -> List[Job]:\n"
        '        """The first ``depth`` jobs in priority order (a copy)."""\n'
        "        out.extend(self._sorted()[:depth])\n"
        "        return out\n",
        "the head buffer is a shared default, so each sched pass also sees "
        "the jobs every earlier pass (and simulation) considered",
    ),
    # ------------------------------------------------------------ INV001
    Mutant(
        "INV001", "cluster/allocation.py",
        _LENDER_MB_MAINTENANCE + _CHECK_SEAL_HEAD + _LENDER_MB_CHECK,
        "            if delta > 0:\n"
        "                self._lender_mb[lender] = self._lender_mb.get(lender, 0) + delta\n"
        + _CHECK_SEAL_HEAD,
        "returned borrowings stay in the sealed per-lender totals, so a "
        "release returns memory a shrink already gave back",
    ),
    Mutant(
        "INV001", "cluster/allocation.py",
        _LENDER_MB_MAINTENANCE + _CHECK_SEAL_HEAD + _LENDER_MB_CHECK,
        "            self._lender_mb[node] = self._lender_mb.get(node, 0) + delta\n"
        "            if self._lender_mb[node] == 0:\n"
        "                del self._lender_mb[node]\n"
        + _CHECK_SEAL_HEAD,
        "a borrow is booked under the compute node instead of the lender, "
        "so a release credits memory back to the wrong node",
    ),
    # ------------------------------------------------------------ DET101
    Mutant(
        "DET101", "slowdown/model.py",
        "        contention = float(np.cumsum(mb * osub)[-1]) / total_mb\n",
        "        terms = set(zip(ids.tolist(), (mb * osub).tolist()))\n"
        "        weighted = 0.0\n"
        "        for _lender, term in terms:\n"
        "            weighted += term\n"
        "        contention = weighted / total_mb\n",
        "the contention mean sums lender terms in set order, so slowdowns "
        "change in the last bits",
    ),
    Mutant(
        "DET101", "slowdown/model.py",
        "        for jid, mb in cluster.borrowers_of(lender).items():\n",
        "        for jid, mb in set(cluster.borrowers_of(lender).items()):\n",
        "a lender's demand sums its borrowers in set order instead of "
        "ledger order",
    ),
    Mutant(
        "DET101", "metrics/analysis.py",
        "    for r in restarted:\n",
        "    for r in set(restarted):\n",
        "the wasted-work bound sums records in set order instead of record "
        "order, so its last bits change",
    ),
    # ------------------------------------------------------------ DET102
    Mutant(
        "DET102", "experiments/runner.py",
        "    seed = stable_seed(*scenario.generation_seed_key(), base=1234)\n",
        "    import os\n"
        "    seed = stable_seed(*scenario.generation_seed_key(),\n"
        "                       base=int(os.environ.get('REPRO_SEED_BASE', '1234')))\n",
        "every campaign trace depends on REPRO_SEED_BASE in the shell",
    ),
    Mutant(
        "DET102", "policies/dynamic.py",
        "        self._monitor_rng = ensure_rng(monitor_seed)\n",
        "        import os\n"
        "        self._monitor_rng = ensure_rng(\n"
        "            int(os.getenv('REPRO_MONITOR_SEED', str(monitor_seed))))\n",
        "noisy Monitor readings depend on REPRO_MONITOR_SEED in the shell",
    ),
    # ------------------------------------------------------------ DET103
    Mutant(
        "DET103", "scheduler/controller.py",
        "        for jid in sorted(set(jids)):\n",
        "        order = list(set(jids))\n"
        "        for jid in order:\n",
        "affected jobs are repriced in set order, so equal-time finish "
        "events are queued in a different order",
    ),
    Mutant(
        "DET103", "experiments/campaign.py",
        "    slugs = sorted({scenario_slug(sc) for sc in scenarios})\n",
        "    slugs = list({scenario_slug(sc) for sc in scenarios})\n",
        "merged campaign telemetry lists scenarios in string-hash order, "
        "so the merged files depend on PYTHONHASHSEED",
    ),
    # ----------------------------------------------------------- UNIT101
    Mutant(
        "UNIT101", "traces/pipeline.py",
        "        request = int(round(int(peaks[i]) * (1.0 + overestimation)))\n",
        "        request = int(peaks[i]) * (1.0 + overestimation)\n",
        "an overestimated synthetic request is a float when it reaches "
        "`mem_request_mb`",
    ),
    Mutant(
        "UNIT101", "traces/pipeline.py",
        "        request = int(round(usage.peak() * (1.0 + overestimation)))\n",
        "        request = usage.peak() * (1.0 + overestimation)\n",
        "an overestimated Grizzly request is a float when it reaches "
        "`mem_request_mb`",
    ),
    # ----------------------------------------------------------- RACE001
    Mutant(
        "RACE001", "experiments/runner.py",
        "    telemetry = (\n"
        "        Telemetry(trace_spans=False, max_prov_entries=CAMPAIGN_PROV_ENTRIES)\n",
        "    global CAMPAIGN_PROV_ENTRIES\n"
        "    CAMPAIGN_PROV_ENTRIES = max(CAMPAIGN_PROV_ENTRIES, 8 * len(jobs))\n"
        "    telemetry = (\n"
        "        Telemetry(trace_spans=False, max_prov_entries=CAMPAIGN_PROV_ENTRIES)\n",
        "the provenance ring grows with the largest workload this process "
        "ran, so a scenario's provenance tail depends on its worker's "
        "earlier chunks",
    ),
    Mutant(
        "RACE001", "slowdown/profiles.py",
        "            )\n"
        "        )\n"
        "    return pool\n",
        "            )\n"
        "        )\n"
        "    DEFAULT_PROFILES[:] = pool\n"
        "    return pool\n",
        "an extended profile pool is kept in the module list, so later "
        "pools in the same process reuse the first caller's jitter",
    ),
    # ----------------------------------------------------------- RACE002
    Mutant(
        "RACE002", "traces/cache.py",
        "def store_workload(key: str, workload: Workload) -> bool:\n",
        "#: One scratch file per process, reused by every store.\n"
        '_SCRATCH = tempfile.NamedTemporaryFile(suffix=".tmp", delete=False)\n'
        "\n"
        "\n"
        "def store_workload(key: str, workload: Workload) -> bool:\n"
        "    directory = cache_dir()\n"
        "    if directory is None:\n"
        "        return False\n"
        "    directory.mkdir(parents=True, exist_ok=True)\n"
        '    with open(_SCRATCH.name, "wb") as fh:\n'
        "        pickle.dump(workload, fh, protocol=pickle.HIGHEST_PROTOCOL)\n"
        "    os.replace(_SCRATCH.name, _entry_path(directory, key))\n"
        "    return True\n"
        "\n"
        "\n"
        "def _store_workload_atomic(key: str, workload: Workload) -> bool:\n",
        "forked workers share the parent's scratch path, so one worker can "
        "rename another's trace under its own cache key",
    ),
    Mutant(
        "RACE002", "traces/cache.py",
        "def load_workload(key: str) -> Optional[Workload]:\n",
        "#: Append-only log of cache lookups, shared by the whole campaign.\n"
        '_LOOKUPS = open(os.path.join(tempfile.gettempdir(), "repro-trace-lookups.log"), "a")\n'
        "\n"
        "\n"
        "def load_workload(key: str) -> Optional[Workload]:\n"
        "    _LOOKUPS.write(key + chr(10))\n",
        "forked workers inherit one buffered handle, so lines buffered in "
        "the parent are written once per worker",
    ),
    # ----------------------------------------------------------- RACE003
    Mutant(
        "RACE003", "experiments/parallel.py",
        "        pool.submit(_run_chunk, chunk, collect_telemetry): chunk\n",
        "        pool.submit(lambda c=chunk: _run_chunk(c, collect_telemetry)): chunk\n",
        "a lambda cannot be pickled, so every parallel campaign fails",
    ),
    Mutant(
        "RACE003", "experiments/parallel.py",
        "    with ProcessPoolExecutor(\n"
        "        max_workers=workers, initializer=clear_caches\n"
        "    ) as pool:\n",
        "    def fresh_worker() -> None:\n"
        "        clear_caches()\n"
        "\n"
        "    with ProcessPoolExecutor(\n"
        "        max_workers=workers, initializer=fresh_worker\n"
        "    ) as pool:\n",
        "a nested initializer cannot be pickled, so parallel campaigns fail "
        "under the spawn start method (macOS, Windows)",
    ),
    # ------------------------------------------------------------ INV101
    Mutant(
        "INV101", "policies/dynamic.py",
        "            c.resize(jid, nodes, deltas, alloc=alloc)\n"
        "            out.grown_mb += int(deltas[grow].sum())\n",
        "            c.local_used_mb[nodes] += deltas\n"
        "            for node, delta in zip(nodes.tolist(), deltas.tolist()):\n"
        "                alloc.local_mb[node] = alloc.local_mb.get(node, 0) + delta\n"
        "            out.grown_mb += int(deltas[grow].sum())\n",
        "a local-only resize pokes the used column, so free DRAM and the "
        "O(1) totals go stale",
    ),
    Mutant(
        "INV101", "whatif/perturb.py",
        "        cluster.expand_capacity(idle, self.extra_mb_per_node)\n",
        "        cluster.capacity_mb[idle] += self.extra_mb_per_node\n"
        "        cluster._free_local[idle] += self.extra_mb_per_node\n",
        "an add-memnodes what-if skips the capacity total, so the free-DRAM "
        "total the scheduler checks stays at the old machine and the "
        "query's answer changes",
    ),
    # ------------------------------------------------------------ INV103
    Mutant(
        "INV103", "cluster/cluster.py",
        "        alloc._seal(nodes_arr, node_set, remote_on, borrow_totals)\n"
        "        self._notify_demand(list(borrow_totals))\n",
        "        alloc._seal(nodes_arr, node_set, remote_on, borrow_totals)\n",
        "a started job's lenders keep their cached demand, so contention "
        "on them is underpriced",
    ),
    Mutant(
        "INV103", "cluster/cluster.py",
        "        # Returned lenders may have left the job's lender set.\n"
        "        self._notify_job_demand(alloc, extra=returned)\n",
        "        # Returned lenders may have left the job's lender set.\n"
        "        if n or returned:\n"
        "            self._notify_job_demand(alloc, extra=returned)\n",
        "a resize that only borrows sends no demand notification, so a "
        "borrow leaves its lender's cached demand stale",
    ),
    # ------------------------------------------------------------ INV104
    Mutant(
        "INV104", "cluster/cluster.py",
        "                np.fromiter(remote_on.values(), np.int64, k))\n"
        "        self._notify_demand(released_lenders)\n",
        "                np.fromiter(remote_on.values(), np.int64, k))\n",
        "a finished job's lenders keep its demand, so the jobs still "
        "borrowing from them stay overpriced",
    ),
    Mutant(
        "INV104", "cluster/cluster.py",
        "        # Returned lenders may have left the job's lender set.\n"
        "        self._notify_job_demand(alloc, extra=returned)\n",
        "",
        "a dynamic resize leaves its lenders' cached demand stale",
    ),
)


#: Table numbers of the mutants whose rule flags them and the suite
#: misses, less #16, whose edit changed no output in a probe
#: (``docs/STATIC_ANALYSIS.md``): the evidence each shipped rule stands
#: on, re-checked by ``tests/test_analysis_mutants.py``.
MISSED = frozenset({2, 3, 7, 8, 9, 17, 18, 19, 21, 24, 25, 26, 27, 29, 31})


# ----------------------------------------------------------------------
# Applying a mutant
# ----------------------------------------------------------------------
def apply_mutant(source: str, mutant: Mutant) -> str:
    """``source`` with the mutant's edit; its anchor must occur once."""
    count = source.count(mutant.anchor)
    if count != 1:
        raise ValueError(
            f"{mutant.rule} anchor occurs {count} times in {mutant.relpath}"
        )
    return source.replace(mutant.anchor, mutant.replacement)


def edited_lines(source: str, mutant: Mutant) -> range:
    """1-based line numbers the replacement occupies in the mutated file
    (the line the edit sits on when the replacement is empty)."""
    first = source[: source.index(mutant.anchor)].count("\n") + 1
    n = max(mutant.replacement.count("\n"), 1)
    return range(first, first + n)


def edit_summary(mutant: Mutant, width: int = 72) -> str:
    """The edit in one line: the first replacement line the anchor
    lacks, or the first anchor line when the edit only deletes."""
    anchor = set(mutant.anchor.splitlines())
    added = [
        ln for ln in mutant.replacement.splitlines()
        if ln not in anchor and not ln.lstrip().startswith(("import ", "#"))
    ]
    removed = [
        ln for ln in mutant.anchor.splitlines()
        if ln not in set(mutant.replacement.splitlines())
        and not ln.lstrip().startswith("#")
    ]
    text = ("+ " + added[0].strip()) if added else ("- " + removed[0].strip())
    return text if len(text) <= width else text[: width - 1] + "…"


# ----------------------------------------------------------------------
# Running one mutant
# ----------------------------------------------------------------------
def _copy_repo(dest: Path) -> None:
    shutil.copytree(
        ROOT, dest,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc"
        ),
    )


def _env(copy: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(copy / "src")
    env.pop("PYTHONHASHSEED", None)
    return env


def rule_flags(copy: Path, mutant: Mutant) -> str:
    """``yes``/``no``: does the rule report the mutated module?  The
    unmutated tree is lint-clean, so any finding there is the edit's.
    ``deleted`` when the copy's linter no longer registers the rule."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", "--rule", mutant.rule,
         "--format", "json", str(copy / "src" / "repro")],
        cwd=copy, env=_env(copy), capture_output=True, text=True,
    )
    if proc.returncode == 2 and "unknown rule" in proc.stderr:
        return "deleted"
    if proc.returncode not in (0, 1):
        return f"error: {proc.stderr.strip().splitlines()[-1:]}"
    target = (copy / "src" / "repro" / mutant.relpath).resolve()
    for finding in json.loads(proc.stdout)["findings"]:
        if Path(finding["path"]).resolve() == target:
            return "yes"
    return "no"


_FAILED_RE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def suite_result(copy: Path) -> str:
    """The first failing tier-1 test, ``missed``, or ``timeout``."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *LINT_TESTS],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
            timeout=SUITE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return "missed"
    match = _FAILED_RE.search(proc.stdout)
    if match:
        return match.group(1)
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"exit {proc.returncode}: {tail}"


def run_mutant(mutant: Mutant, suite: bool = True) -> Tuple[str, str, float]:
    """(rule column, suite column, seconds) for one mutant."""
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="lint-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        _copy_repo(copy)
        path = copy / "src" / "repro" / mutant.relpath
        source = path.read_text(encoding="utf-8")
        path.write_text(apply_mutant(source, mutant), encoding="utf-8")
        flagged = rule_flags(copy, mutant)
        caught = suite_result(copy) if suite else "-"
    return flagged, caught, time.monotonic() - t0


def select(rules: Optional[Sequence[str]]) -> List[Tuple[int, Mutant]]:
    wanted = {r.upper() for r in rules} if rules else None
    return [
        (i, m) for i, m in enumerate(MUTANTS, start=1)
        if wanted is None or m.rule in wanted
    ]


TABLE_HEADER = (
    "| # | rule | module | edit | rule flags | suite (first failure) |\n"
    "|---|------|--------|------|------------|------------------------|"
)


def table_row(i: int, m: Mutant, flagged: str, caught: str) -> str:
    edit = edit_summary(m).replace("|", "\\|")
    return (f"| {i} | {m.rule} | `{m.relpath}` | `{edit}` | {flagged} "
            f"| {caught} |")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", action="append", metavar="ID",
                        help="run only this rule's mutants (repeatable)")
    parser.add_argument("--lint-only", action="store_true",
                        help="skip the suite column")
    args = parser.parse_args(argv)
    print(TABLE_HEADER, flush=True)
    for i, m in select(args.rule):
        flagged, caught, secs = run_mutant(m, suite=not args.lint_only)
        print(table_row(i, m, flagged, caught) + f" <!-- {secs:.0f} s -->",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
