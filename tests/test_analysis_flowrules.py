"""Cross-module tests for the deep flow rules (repro.analysis.flowrules)."""

from repro.analysis import lint_project_sources


def rules_fired(sources):
    return sorted({f.rule for f in lint_project_sources(sources)})


def findings_for(sources, rule):
    return [f for f in lint_project_sources(sources) if f.rule == rule]


# ----------------------------------------------------------------------
# DET101 — unordered float accumulation
# ----------------------------------------------------------------------

def test_det101_cross_module_float_summary():
    sources = {
        "repro/metrics/score.py": (
            "def weight(x) -> float:\n"
            "    return x * 0.5\n"
        ),
        "repro/metrics/agg.py": (
            "from repro.metrics.score import weight\n"
            "\n"
            "def total(items):\n"
            "    acc = 0.0\n"
            "    for it in set(items):\n"
            "        acc += weight(it)\n"
            "    return acc\n"
        ),
    }
    hits = findings_for(sources, "DET101")
    assert len(hits) == 1
    assert hits[0].path == "repro/metrics/agg.py"


def test_det101_int_accumulation_is_clean():
    sources = {
        "repro/metrics/agg.py": (
            "def total(free, excluded):\n"
            "    return sum(int(free[node]) for node in excluded)\n"
        ),
    }
    assert findings_for(sources, "DET101") == []


def test_det101_sorted_iteration_is_clean():
    sources = {
        "repro/metrics/agg.py": (
            "def total(items):\n"
            "    acc = 0.0\n"
            "    for it in sorted(set(items)):\n"
            "        acc += it * 0.5\n"
            "    return acc\n"
        ),
    }
    assert findings_for(sources, "DET101") == []


# ----------------------------------------------------------------------
# DET102 — environment-derived seeds
# ----------------------------------------------------------------------

def test_det102_env_flows_into_seed_call():
    sources = {
        "repro/core/boot.py": (
            "import os\n"
            "import random\n"
            "\n"
            "def init():\n"
            "    raw = os.environ.get('SEED', '0')\n"
            "    random.seed(raw)\n"
        ),
    }
    assert len(findings_for(sources, "DET102")) >= 1


def test_det102_literal_seed_is_clean():
    sources = {
        "repro/core/boot.py": (
            "import random\n"
            "\n"
            "def init():\n"
            "    random.seed(1234)\n"
        ),
    }
    assert findings_for(sources, "DET102") == []


# ----------------------------------------------------------------------
# RACE001 — worker writes to shared module state
# ----------------------------------------------------------------------

_WORKER_MODULE = (
    "_CACHE = {}\n"
    "_SCRATCH = {}\n"
    "\n"
    "def reset():\n"
    "    _SCRATCH.clear()\n"
    "\n"
    "def work(item):\n"
    "    _CACHE[item] = item\n"
    "    _SCRATCH[item] = item\n"
    "    return item\n"
)


def test_race001_unsanctioned_global_write_fires():
    sources = {
        "repro/experiments/w.py": _WORKER_MODULE,
        "repro/experiments/d.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.experiments.w import work, reset\n"
            "\n"
            "def launch(items):\n"
            "    with ProcessPoolExecutor(initializer=reset) as pool:\n"
            "        return [pool.submit(work, i) for i in items]\n"
        ),
    }
    hits = findings_for(sources, "RACE001")
    # _CACHE write fires; _SCRATCH is sanctioned by the initializer.
    assert len(hits) == 1
    assert "_CACHE" in hits[0].message


def test_race001_silent_without_dispatch():
    sources = {"repro/experiments/w.py": _WORKER_MODULE}
    assert findings_for(sources, "RACE001") == []


# ----------------------------------------------------------------------
# RACE003 — unpicklable dispatch targets
# ----------------------------------------------------------------------

def test_race003_lambda_target():
    sources = {
        "repro/experiments/d.py": (
            "def launch(pool, items):\n"
            "    return [pool.submit(lambda i: i, x) for x in items]\n"
        ),
    }
    assert len(findings_for(sources, "RACE003")) == 1


# ----------------------------------------------------------------------
# INV101/103 — ledger coherence
# ----------------------------------------------------------------------

_OWNER_MODULE = (
    "class Led:\n"
    "    def __init__(self, n):\n"
    "        self.lent_mb = [0] * n\n"
    "        self.lender_jobs = [dict() for _ in range(n)]\n"
    "\n"
    "    def _notify_demand(self, lenders):\n"
    "        pass\n"
    "\n"
    "    def lend(self, node, mb):\n"
    "        self.lent_mb[node] += mb\n"
    "        self._notify_demand([node])\n"
    "\n"
    "    def check_invariants(self):\n"
    "        pass\n"
)


def test_inv101_cross_module_poke():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE,
        "repro/policies/poke.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def steal(led: Led, node, mb):\n"
            "    led.lent_mb[node] -= mb\n"
        ),
    }
    hits = findings_for(sources, "INV101")
    assert len(hits) == 1
    assert hits[0].path == "repro/policies/poke.py"


def test_inv101_through_mutator_is_clean():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE,
        "repro/policies/ok.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def borrow(led: Led, node, mb):\n"
            "    led.lend(node, mb)\n"
        ),
    }
    assert findings_for(sources, "INV101") == []


def test_inv101_flags_columnar_remote_held_poke():
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE.replace(
            "self.lent_mb = [0] * n",
            "self.lent_mb = [0] * n\n        self.remote_held_mb = [0] * n",
        ),
        "repro/policies/poke.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def steal(led: Led, node, mb):\n"
            "    led.remote_held_mb[node] -= mb\n"
        ),
    }
    hits = findings_for(sources, "INV101")
    assert len(hits) == 1
    assert hits[0].path == "repro/policies/poke.py"


def test_inv101_flags_capacity_poke():
    """An add-memnodes edit that bumps the capacity column and total
    instead of calling ``expand_capacity``: one finding per write."""
    sources = {
        "repro/cluster/led.py": _OWNER_MODULE.replace(
            "self.lent_mb = [0] * n",
            "self.lent_mb = [0] * n\n        self.capacity_mb = [0] * n\n"
            "        self._total_capacity = 0",
        ),
        "repro/whatif/poke.py": (
            "from repro.cluster.led import Led\n"
            "\n"
            "def add_memnodes(led: Led, idle, mb):\n"
            "    led.capacity_mb[idle] += mb\n"
            "    led._total_capacity += mb * len(idle)\n"
        ),
    }
    hits = findings_for(sources, "INV101")
    assert [(h.path, h.line) for h in hits] == [
        ("repro/whatif/poke.py", 4), ("repro/whatif/poke.py", 5)]


def test_shallow_rules_still_run_in_project_mode():
    sources = {
        "repro/core/x.py": "def f(total, n):\n    share_mb = total / n\n    return share_mb\n",
    }
    fired = rules_fired(sources)
    assert "UNIT001" in fired
