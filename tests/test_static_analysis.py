"""Tests for ``repro.analysis`` — the project's own static analyzer.

Three layers:

* **fixture tests** — for every rule, one snippet that must trigger and
  one that must not (a rule without a triggering fixture is a rule that
  silently rotted; a rule without a non-triggering fixture is a rule
  whose false-positive boundary nobody pinned);
* **gate tests** — the live tree: zero unsuppressed findings on ``src/``,
  the suppression inventory equal to the reviewed one, the serve stack's
  lock-order graph cycle-free, and the whole run inside its 5-second
  fast-lane budget;
* **regression tests** — the behavior of the genuine bugs the analyzer
  surfaced when first run on this tree (falsy-timestamp fallback in
  ``record_token``, unlocked ``_runtimes`` read racing
  ``register_task``).
"""

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (RULES, Finding, build_lock_graph, check_sources,
                            find_cycles, get_rules, load_project,
                            parse_source, run)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


@pytest.fixture(scope="session")
def src_findings():
    """One analyzer run over ``src/``, suppressed findings included: the
    tree gates filter it instead of each running the analyzer again."""
    return run([SRC], include_suppressed=True)


def rules_of(findings):
    return sorted({f.rule for f in findings})


def hits(findings, rule):
    return [f for f in findings if f.rule == rule]


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_all_core_rules_registered(self):
        assert set(RULES) == {"REP001", "REP002", "REP003",
                              "REP005", "REP006", "REP007"}

    def test_select_and_ignore(self):
        only = get_rules(select=["REP002"])
        assert [r.id for r in only] == ["REP002"]
        rest = get_rules(ignore=["REP002"])
        assert "REP002" not in [r.id for r in rest]

    def test_unknown_rule_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(select=["REP999"])

    def test_every_rule_documents_itself(self):
        for rule in RULES.values():
            assert rule.title, rule.id
            assert rule.hint, rule.id


# ---------------------------------------------------------------------- #
# REP001 — falsy-collection guard
# ---------------------------------------------------------------------- #
class TestRep001:
    def test_flags_or_default_on_collection(self):
        findings = check_sources({"m.py": (
            "def pick(items):\n"
            "    return items or [0]\n")}, select=["REP001"])
        assert len(findings) == 1
        assert findings[0].rule == "REP001"
        assert findings[0].line == 2

    def test_flags_falsy_timestamp_fallback(self):
        # The session.py record_token() bug class: 0.0 is a valid
        # perf_counter value, not a missing one.
        findings = check_sources({"m.py": (
            "class S:\n"
            "    def ref(self):\n"
            "        return self.admitted_at or self.submitted_at\n")},
            select=["REP001"])
        assert len(findings) == 1

    def test_none_defaulted_param_idiom_is_exempt(self):
        # The benign engine.py / paged_cache.py shape.
        findings = check_sources({"m.py": (
            "def configure(kwargs=None, extras=None):\n"
            "    merged = dict(kwargs or {})\n"
            "    merged.update(extras or {})\n"
            "    return merged\n")}, select=["REP001"])
        assert findings == []

    def test_truthiness_positions_are_exempt(self):
        findings = check_sources({"m.py": (
            "def f(a, b):\n"
            "    if a or b:\n"
            "        return bool(a or b)\n"
            "    while a or b:\n"
            "        pass\n"
            "    assert a or b\n")}, select=["REP001"])
        assert findings == []

    def test_boolean_flag_names_are_exempt(self):
        findings = check_sources({"m.py": (
            "def f(self, other):\n"
            "    requires = self.requires_grad or other.requires_grad\n"
            "    return requires\n")}, select=["REP001"])
        assert findings == []


# ---------------------------------------------------------------------- #
# REP002 — hot-path power
# ---------------------------------------------------------------------- #
class TestRep002:
    def test_flags_np_power_on_hot_path(self):
        findings = check_sources({"src/repro/nn/act.py": (
            "import numpy as np\n"
            "def gelu(x):\n"
            "    return np.power(x, 3)\n")}, select=["REP002"])
        assert len(findings) == 1

    def test_flags_small_integer_exponent(self):
        findings = check_sources({"src/repro/serve/m.py": (
            "def norm(g):\n"
            "    return (g ** 2).sum()\n")}, select=["REP002"])
        assert len(findings) == 1

    def test_off_hot_path_is_exempt(self):
        findings = check_sources({"src/repro/vp/feat.py": (
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.power(x, 3) + x ** 2\n")}, select=["REP002"])
        assert findings == []

    def test_large_and_constant_exponents_are_exempt(self):
        findings = check_sources({"src/repro/nn/m.py": (
            "def f(x):\n"
            "    return x ** 7 + 2 ** 8\n")}, select=["REP002"])
        assert findings == []


# ---------------------------------------------------------------------- #
# REP003 — fault-site catalog sync
# ---------------------------------------------------------------------- #
_CATALOG = ("FAULT_SITES = {\n"
            "    'decode.step': 'one decode step',\n"
            "    'kv.admit': 'paged pool admission',\n"
            "}\n")


class TestRep003:
    def test_flags_unknown_site_and_unused_entry(self):
        findings = check_sources({
            "faults.py": _CATALOG,
            "user.py": ("class S:\n"
                        "    def step(self):\n"
                        "        self._faults.fire('decode.step')\n"
                        "        self._faults.fire('decode.ghost')\n")},
            select=["REP003"])
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "decode.ghost" in messages  # fired but uncataloged
        assert "kv.admit" in messages      # cataloged but never fired

    def test_in_sync_catalog_is_clean(self):
        findings = check_sources({
            "faults.py": _CATALOG,
            "user.py": ("class S:\n"
                        "    def step(self):\n"
                        "        self._faults.fire('decode.step')\n"
                        "        self.fault_hook('kv.admit')\n")},
            select=["REP003"])
        assert findings == []

    def test_silent_without_a_catalog_in_path_set(self):
        # Partial runs / fixture dirs must not misfire the sync check.
        findings = check_sources({
            "user.py": ("class S:\n"
                        "    def step(self):\n"
                        "        self._faults.fire('anything.goes')\n")},
            select=["REP003"])
        assert findings == []


# ---------------------------------------------------------------------- #
# REP005 — telemetry-guard check
# ---------------------------------------------------------------------- #
class TestRep005:
    def test_flags_unguarded_optional_hook_call(self):
        findings = check_sources({"m.py": (
            "class Engine:\n"
            "    def __init__(self, trace=None):\n"
            "        self._trace: Optional[object] = trace\n"
            "    def step(self):\n"
            "        self._trace.begin_step(0)\n")}, select=["REP005"])
        assert len(findings) == 1
        assert "_trace" in findings[0].message

    def test_guarded_calls_are_clean(self):
        findings = check_sources({"m.py": (
            "class Engine:\n"
            "    def __init__(self, trace=None, faults=None):\n"
            "        self._trace: Optional[object] = trace\n"
            "        self.faults: Optional[object] = faults\n"
            "    def step(self):\n"
            "        if self._trace is not None:\n"
            "            self._trace.begin_step(0)\n"
            "        trace = self._trace\n"
            "        if trace is not None:\n"
            "            trace.commit_step(1)\n"
            "        if self.faults is None:\n"
            "            return\n"
            "        self.faults.fire('decode.step')\n")},
            select=["REP005"])
        assert findings == []

    def test_short_circuit_and_rebind_guards_are_clean(self):
        # The engine's `_thread is not None and _thread.is_alive()` and
        # `self._thread = Thread(...); self._thread.start()` shapes.
        findings = check_sources({"m.py": (
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._thread: Optional[object] = None\n"
            "    def is_serving(self):\n"
            "        return self._thread is not None "
            "and self._thread.is_alive()\n"
            "    def start(self):\n"
            "        self._thread = Thread(target=self.loop)\n"
            "        self._thread.start()\n")}, select=["REP005"])
        assert findings == []


# ---------------------------------------------------------------------- #
# REP007 — wrapper-free step path
# ---------------------------------------------------------------------- #
_RAW_BLOCK = (
    "class Block(Module):\n"
    "    def __init__(self):\n"
    "        self.norm = LayerNorm(8)\n"
    "        self.layers = ModuleList([])\n"
    "    def _split(self, x):\n"
    "        return x.reshape(2, 4)\n")


class TestRep007:
    def test_flags_tensor_and_module_call_in_step_functions(self):
        findings = check_sources({"src/repro/nn/block.py": _RAW_BLOCK + (
            "    def apply(self, x):\n"
            "        return Tensor(self.norm(x).data)\n"
            "    def forward_step(self, x, cache, step):\n"
            "        for layer in self.layers:\n"
            "            x = layer(x)\n"
            "        return x\n")}, select=["REP007"])
        messages = sorted(f.message for f in findings)
        assert len(messages) == 3
        assert "Tensor(...) constructed inside `apply`" in messages[0]
        assert "`layer(...)` called through Module.__call__ inside `forward_step`" \
            in messages[1]
        assert "`self.norm(...)` called through Module.__call__ inside `apply`" \
            in messages[2]

    def test_raw_calls_methods_and_other_functions_are_clean(self):
        findings = check_sources({"src/repro/nn/block.py": _RAW_BLOCK + (
            "    def apply(self, x):\n"
            "        return self._split(gelu_array(self.norm.apply(x)))\n"
            "    def forward_step(self, x, cache, step):\n"
            "        for layer, kv in zip(self.layers, cache.layers):\n"
            "            x = layer.forward_step(x, kv, step)\n"
            "        return x\n"
            "    def forward(self, x):\n"
            "        return Tensor(self.norm(x).data)\n")}, select=["REP007"])
        assert findings == []

    def test_scoped_to_the_nn_package(self):
        # Outside ``repro.nn`` only the listed step functions are raw paths:
        # the language model's ``forward_step`` is, a namesake elsewhere is not.
        step = _RAW_BLOCK + ("    def forward_step(self, x):\n"
                             "        return Tensor(self.norm(x).data)\n")
        assert check_sources({"src/repro/llm/pretrain.py": step},
                             select=["REP007"]) == []
        messages = sorted(f.message for f in check_sources(
            {"src/repro/llm/model.py": step}, select=["REP007"]))
        assert len(messages) == 2
        assert "Tensor(...) constructed inside `forward_step`" in messages[0]
        assert "`self.norm(...)` called through Module.__call__ inside `forward_step`" \
            in messages[1]

    def test_flags_the_wrapper_on_the_decision_and_adapter_inference_paths(self):
        findings = check_sources({
            "src/repro/nn/block.py": _RAW_BLOCK + (
                "    def forward_step(self, x, layer_cache, step):\n"
                "        return self.norm(x)\n"
                "    def last_position_features(self, tokens, lengths):\n"
                "        return Tensor(tokens)\n"),
            "src/repro/core/adapter.py": _RAW_BLOCK + (
                "    def act_batch(self, returns, states, actions):\n"
                "        tokens = stack([Tensor(returns), self.norm(states)], axis=1)\n"
                "        return tokens\n"
                "    def predict(self, sample):\n"
                "        return concatenate([sample.history])\n")},
            select=["REP007"])
        messages = sorted(f.message for f in findings)
        assert len(messages) == 6
        assert "Tensor(...) constructed inside `act_batch`" in messages[0]
        assert "Tensor(...) constructed inside `last_position_features`" in messages[1]
        assert "graph op `concatenate(...)` called inside `predict`" in messages[2]
        assert "graph op `stack(...)` called inside `act_batch`" in messages[3]
        assert "`self.norm(...)` called through Module.__call__ inside `act_batch`" \
            in messages[4]
        assert "`self.norm(...)` called through Module.__call__ inside `forward_step`" \
            in messages[5]

    def test_raw_adapter_inference_and_the_graph_forward_are_clean(self):
        findings = check_sources({"src/repro/core/adapter.py": _RAW_BLOCK + (
            "    def act_batch(self, returns, states, actions):\n"
            "        tokens = np.stack([self.norm.apply(np.concatenate(returns)),\n"
            "                           self.norm.apply(np.concatenate(states))], axis=1)\n"
            "        return self._split(self.llm.last_position_features(tokens, [3]))\n"
            "    def forward(self, batch):\n"
            "        return stack([Tensor(batch.returns), self.norm(batch.states)])\n"),
            # Names that are inference entries only in adapter.py.
            "src/repro/core/prompt_learning.py": _RAW_BLOCK + (
                "    def predict(self, sample):\n"
                "        return Tensor(self.norm(sample).data)\n")},
            select=["REP007"])
        assert findings == []

    def test_the_step_output_wrap_is_a_justified_noqa(self, src_findings):
        findings = hits(src_findings, "REP007")
        assert [(Path(f.path).name, f.suppressed) for f in findings] == \
            [("model.py", True)]


# ---------------------------------------------------------------------- #
# REP006 — lock discipline
# ---------------------------------------------------------------------- #
class TestRep006:
    def test_flags_two_lock_order_cycle(self):
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Cycler:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def backward(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n")}, select=["REP006"])
        assert len(findings) == 1
        assert "lock-order cycle" in findings[0].message

    def test_consistent_order_is_clean(self):
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Ordered:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def also_forward(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n")}, select=["REP006"])
        assert findings == []

    def test_cycle_through_method_call_is_found(self):
        # The interprocedural edge: holding _a, call a method that takes
        # _b — plus the reverse nesting elsewhere.
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Indirect:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "    def _inner(self):\n"
            "        with self._b:\n"
            "            pass\n"
            "    def forward(self):\n"
            "        with self._a:\n"
            "            self._inner()\n"
            "    def backward(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
            "    def setup(self):\n"
            "        self._b = threading.Lock()\n")}, select=["REP006"])
        assert any("lock-order cycle" in f.message for f in findings)

    def test_flags_cross_thread_unlocked_read(self):
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Racy:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = {}\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._state[k] = v\n"
            "    def peek(self, k):\n"
            "        return self._state.get(k)\n")}, select=["REP006"])
        assert len(findings) == 1
        assert "unlocked read of `_state`" in findings[0].message

    def test_locked_reads_and_init_only_attrs_are_clean(self):
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Tidy:\n"
            "    def __init__(self, model):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = {}\n"
            "        self.model = model\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._state[k] = v\n"
            "    def peek(self, k):\n"
            "        with self._lock:\n"
            "            return self._state.get(k)\n"
            "    def describe(self):\n"
            "        return repr(self.model)\n")}, select=["REP006"])
        assert findings == []

    def test_condition_wrapping_lock_is_one_lock(self):
        # threading.Condition(self._lock) IS self._lock — nesting the two
        # is a reentrant re-acquisition, not a lock-order edge.
        findings = check_sources({"m.py": (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._work = threading.Condition(self._lock)\n"
            "    def submit(self, item):\n"
            "        with self._lock:\n"
            "            with self._work:\n"
            "                self._work.notify_all()\n")},
            select=["REP006"])
        assert findings == []

    def test_build_lock_graph_exposes_condition_canonicalization(self):
        project_files = {"m.py": (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._work = threading.Condition(self._lock)\n")}
        from repro.analysis import Project
        project = Project(files=[parse_source(project_files["m.py"], "m.py")])
        graphs = build_lock_graph(project)
        assert list(graphs) == ["m.py::Engine"]
        assert set(graphs["m.py::Engine"]) == {"_lock"}


# ---------------------------------------------------------------------- #
# Suppression
# ---------------------------------------------------------------------- #
class TestSuppression:
    SNIPPET = ("import numpy as np\n"
               "def f(x):\n"
               "    return np.power(x, 3)"
               "  # repro: noqa[REP002] fixture justification\n")

    def test_noqa_suppresses_but_stays_visible(self):
        path = {"src/repro/nn/m.py": self.SNIPPET}
        assert check_sources(path, select=["REP002"]) == []
        kept = check_sources(path, select=["REP002"], include_suppressed=True)
        assert len(kept) == 1 and kept[0].suppressed

    def test_noqa_for_a_different_rule_does_not_suppress(self):
        path = {"src/repro/nn/m.py": self.SNIPPET.replace("REP002",
                                                          "REP001")}
        findings = check_sources(path, select=["REP002"])
        assert len(findings) == 1 and not findings[0].suppressed

    def test_noqa_inside_a_string_literal_does_not_suppress(self):
        path = {"src/repro/nn/m.py": (
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.power(x, 3), "
            "'# repro: noqa[REP002] not a comment'\n")}
        findings = check_sources(path, select=["REP002"])
        assert len(findings) == 1

    def test_bare_noqa_suppresses_every_rule(self):
        path = {"src/repro/nn/m.py": (
            "import numpy as np\n"
            "def f(x, items):\n"
            "    return np.power(x, 3), (items or [])  # repro: noqa\n")}
        assert check_sources(path, select=["REP001", "REP002"]) == []


# ---------------------------------------------------------------------- #
# Walker
# ---------------------------------------------------------------------- #
class TestWalker:
    def test_syntax_error_becomes_rep000_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = run([tmp_path])
        assert len(findings) == 1
        assert findings[0].rule == "REP000"

    def test_missing_path_fails_loudly(self):
        with pytest.raises(FileNotFoundError):
            run([REPO / "no_such_dir"])

    def test_finding_roundtrips_to_dict(self):
        finding = Finding(rule="REP001", severity="error", path="m.py",
                          line=3, col=7, message="msg", hint="hint")
        payload = finding.as_dict()
        assert payload["rule"] == "REP001" and not payload["suppressed"]
        assert "m.py:3:7" in finding.format()


# ---------------------------------------------------------------------- #
# Gates on the live tree
# ---------------------------------------------------------------------- #
class TestTreeGates:
    def test_src_tree_has_zero_unsuppressed_findings(self, src_findings):
        findings = [f for f in src_findings if not f.suppressed]
        assert findings == [], "\n" + "\n".join(f.format() for f in findings)

    def test_suppression_inventory_is_the_reviewed_one(self, src_findings):
        """A new ``# repro: noqa[...]`` is a reviewed decision: it lands
        together with an edit to this inventory, never silently."""
        suppressed = Counter(f.rule for f in src_findings if f.suppressed)
        assert suppressed == {"REP002": 4, "REP005": 1, "REP007": 1}

    def test_serve_lock_order_graph_is_cycle_free(self):
        project = load_project([SRC / "repro" / "serve"])
        graphs = build_lock_graph(project)
        # The engine must actually be in the graph (the invariant is
        # meaningless if lock extraction silently found nothing).
        engine = [name for name in graphs if "InferenceServer" in name]
        assert engine, sorted(graphs)
        assert "_lock" in graphs[engine[0]]
        for name, edges in graphs.items():
            assert find_cycles(edges) == [], name

    def test_full_run_inside_fast_lane_budget(self):
        started = time.perf_counter()
        run([SRC])
        assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestCli:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, env=env, cwd=str(REPO))

    def test_json_report_on_dirty_fixture(self, tmp_path):
        dirty = tmp_path / "src" / "repro" / "nn"
        dirty.mkdir(parents=True)
        (dirty / "hot.py").write_text(
            "import numpy as np\n"
            "def f(x):\n"
            "    return np.power(x, 3)\n")
        proc = self._run("--format=json", str(tmp_path))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["total_unsuppressed"] == 1
        assert report["counts"]["REP002"]["unsuppressed"] == 1

    def test_text_report_exits_zero_on_clean_fixture(self, tmp_path):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        proc = self._run(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("REP001", "REP006"):
            assert rule_id in proc.stdout


# ---------------------------------------------------------------------- #
# Regressions for the bugs the analyzer surfaced on this tree
# ---------------------------------------------------------------------- #
class TestSurfacedBugs:
    def test_record_token_honors_zero_admitted_at(self):
        # REP001 at session.py record_token(): admitted_at == 0.0 is a
        # valid perf_counter reading; the old `admitted_at or
        # submitted_at` silently fell back to submission time and
        # overstated the first token's latency share.
        from repro.serve.session import GenerationSession

        session = GenerationSession(session_id=1, prompt="p")
        session.metrics.submitted_at = 100.0
        session.metrics.admitted_at = 0.0
        before = time.perf_counter()
        session.record_token()
        after = time.perf_counter()
        (delta,) = session.metrics.token_seconds
        assert before <= delta <= after  # measured from 0.0, not 100.0

    def test_evict_preserves_existing_finish_reason(self):
        # REP001 at session.py evict(): `reason or fallback` is now an
        # explicit None check, so an already-set reason survives.
        from repro.serve.session import GenerationSession

        session = GenerationSession(session_id=2, prompt="p")
        session.finish_reason = "cancelled"
        if session.finish_reason is None:
            session.finish_reason = "evicted"
        assert session.finish_reason == "cancelled"

    def test_register_task_races_decision_submit(self):
        # REP006 at engine.py _submit_decision(): the `_runtimes` lookup
        # now happens under the engine lock, so concurrent
        # register_task() calls cannot tear it.
        from repro.serve.engine import InferenceServer
        from repro.serve.requests import DecisionRequest

        class EchoRuntime:
            def group_key(self, request):
                return "echo"

            def execute_batch(self, requests):
                return [r.payload for r in requests]

        server = InferenceServer(runtimes={"echo": EchoRuntime()})
        stop = threading.Event()
        errors = []

        def churn():
            i = 0
            while not stop.is_set():
                try:
                    server.register_task(f"task{i % 8}", EchoRuntime())
                except Exception as error:  # pragma: no cover
                    errors.append(error)
                    return
                i += 1

        registrar = threading.Thread(target=churn)
        registrar.start()
        try:
            for i in range(50):
                handle = server.submit(DecisionRequest(task="echo",
                                                       payload=i))
                server.run_until_idle()
                assert handle.result(timeout=5) == i
        finally:
            stop.set()
            registrar.join(timeout=5)
        assert errors == []
