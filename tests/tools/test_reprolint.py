"""Tests for the reprolint architectural-invariant checker.

Every rule gets a *good* fixture (no findings) and a *bad* fixture (the rule
fires on the expected line), so a rule can never silently become vacuous.
The fixtures are source strings linted through a tiny helper that writes them
to a temp tree, which also exercises module-name resolution (``src/repro/...``
path segments map to ``repro....`` dotted names).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from reprolint import run_paths  # noqa: E402
from reprolint.engine import (  # noqa: E402
    Finding,
    lint_modules,
    load_modules,
    module_name_for,
    parse_suppressions,
)
from reprolint.rules import ALL_RULES, get_rules  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_sources(tmp_path, sources, rules=None):
    """Write ``{relpath: source}`` under a temp tree and lint it.

    Relpaths include the ``src/repro/...`` prefix so dotted module names
    resolve exactly as they do in the real checkout.
    """
    for relpath, source in sources.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return run_paths([tmp_path], rules=rules)


def rules_fired(report):
    return {finding.rule for finding in report.findings}


class TestEngine:
    def test_module_name_roots_at_src(self):
        assert module_name_for(Path("src/repro/engine/batch.py")) == "repro.engine.batch"
        assert module_name_for(Path("x/src/repro/config.py")) == "repro.config"
        assert module_name_for(Path("repro/data/__init__.py")) == "repro.data"
        assert module_name_for(Path("fixture.py")) == "fixture"

    def test_parse_suppressions_with_justification_trailer(self):
        source = "x = 1  # reprolint: disable=typed-errors -- shutdown guard\n"
        assert parse_suppressions(source) == {1: frozenset({"typed-errors"})}

    def test_parse_suppressions_multiple_rules(self):
        source = "x = 1  # reprolint: disable=env-gateway, typed-errors\n"
        assert parse_suppressions(source) == {
            1: frozenset({"env-gateway", "typed-errors"})
        }

    def test_get_rules_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown rule"):
            get_rules(["no-such-rule"])

    def test_finding_render_is_ruff_style(self):
        finding = Finding("src/repro/x.py", 3, 5, "env-gateway", "boom")
        assert finding.render() == "src/repro/x.py:3:5: env-gateway boom"

    def test_every_rule_has_description(self):
        for rule in ALL_RULES:
            assert rule.description
            assert (rule.check is None) != (rule.project_check is None)


class TestEnvGateway:
    def test_config_may_read_environ(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/config.py": "import os\nvalue = os.environ.get('REPRO_X')\n"},
            rules=["env-gateway"],
        )
        assert report.findings == []

    def test_other_module_reading_environ_is_flagged(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/engine/batch.py": "import os\nvalue = os.environ.get('REPRO_X')\n"},
            rules=["env-gateway"],
        )
        assert rules_fired(report) == {"env-gateway"}
        assert report.findings[0].line == 2

    def test_from_import_alias_is_flagged(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/data/columns.py": "from os import getenv\n"},
            rules=["env-gateway"],
        )
        assert rules_fired(report) == {"env-gateway"}


class TestNumpyContainment:
    def test_guarded_import_in_allowed_module_is_clean(self, tmp_path):
        source = (
            "try:\n"
            "    import numpy\n"
            "except ImportError:\n"
            "    numpy = None\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/data/columns.py": source}, rules=["numpy-containment"]
        )
        assert report.findings == []

    def test_unguarded_module_scope_import_is_flagged(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/data/columns.py": "import numpy\n"},
            rules=["numpy-containment"],
        )
        assert rules_fired(report) == {"numpy-containment"}

    def test_import_outside_allowlist_is_flagged(self, tmp_path):
        source = (
            "def f():\n"
            "    import numpy\n"
            "    return numpy.zeros(1)\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/skyline/sfs.py": source}, rules=["numpy-containment"]
        )
        assert rules_fired(report) == {"numpy-containment"}

    def test_numpy_required_module_imports_freely(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/kernels/numpy_kernel.py": "import numpy as np\n"},
            rules=["numpy-containment"],
        )
        assert report.findings == []

    def test_module_scope_import_of_numpy_kernel_is_flagged(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {
                "src/repro/engine/batch.py": (
                    "from repro.kernels.numpy_kernel import NumpyKernel\n"
                )
            },
            rules=["numpy-containment"],
        )
        assert rules_fired(report) == {"numpy-containment"}
        assert "numpy_kernel" in report.findings[0].message


class TestTypedErrors:
    def test_plane_raising_its_own_error_is_clean(self, tmp_path):
        source = (
            "from repro.exceptions import StoreError\n"
            "def read(path):\n"
            "    raise StoreError(f'bad store {path}')\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/store/reader.py": source}, rules=["typed-errors"]
        )
        assert report.findings == []

    def test_generic_raise_in_plane_is_flagged(self, tmp_path):
        source = (
            "def read(path):\n"
            "    raise ValueError('bad store')\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/store/reader.py": source}, rules=["typed-errors"]
        )
        assert rules_fired(report) == {"typed-errors"}
        assert "ValueError" in report.findings[0].message

    def test_bare_except_is_flagged(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/store/reader.py": source}, rules=["typed-errors"]
        )
        assert any("bare" in f.message for f in report.findings)

    def test_swallowing_exception_is_flagged(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["typed-errors"]
        )
        assert rules_fired(report) == {"typed-errors"}

    def test_protocol_method_may_raise_keyerror(self, tmp_path):
        source = (
            "class Cache:\n"
            "    def __getitem__(self, key):\n"
            "        raise KeyError(key)\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/lru.py": source}, rules=["typed-errors"]
        )
        assert report.findings == []


class TestRecordHotPath:
    def test_kernel_touching_records_is_flagged(self, tmp_path):
        source = (
            "def encode(dataset):\n"
            "    return [r.values for r in dataset.records]\n"
        )
        report = lint_sources(
            tmp_path,
            {"src/repro/kernels/numpy_kernel.py": source},
            rules=["no-record-hot-path"],
        )
        assert rules_fired(report) == {"no-record-hot-path"}

    def test_less_touching_records_is_flagged(self, tmp_path):
        source = (
            "def survivors(dataset):\n"
            "    return [record.id for record in dataset.records]\n"
        )
        report = lint_sources(
            tmp_path,
            {"src/repro/skyline/less.py": source},
            rules=["no-record-hot-path"],
        )
        assert rules_fired(report) == {"no-record-hot-path"}

    def test_sfs_naming_record_is_flagged(self, tmp_path):
        source = (
            "from repro.data.dataset import Record\n"
            "\n"
            "def key(record: Record):\n"
            "    return sum(record.values)\n"
        )
        report = lint_sources(
            tmp_path,
            {"src/repro/skyline/sfs.py": source},
            rules=["no-record-hot-path"],
        )
        assert rules_fired(report) == {"no-record-hot-path"}

    def test_non_hot_module_may_touch_records(self, tmp_path):
        source = (
            "def rows(dataset):\n"
            "    return list(dataset.records)\n"
        )
        report = lint_sources(
            tmp_path,
            {"src/repro/data/dataset.py": source},
            rules=["no-record-hot-path"],
        )
        assert report.findings == []


class TestLockOrder:
    TWO_LOCK_INVERTED = (
        "import threading\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self._a_lock = threading.Lock()\n"
        "        self._b_lock = threading.Lock()\n"
        "\n"
        "    def forward(self):\n"
        "        with self._a_lock:\n"
        "            with self._b_lock:\n"
        "                return 1\n"
        "\n"
        "    def backward(self):\n"
        "        with self._b_lock:\n"
        "            with self._a_lock:\n"
        "                return 2\n"
    )

    def test_inverted_two_lock_order_is_flagged(self, tmp_path):
        report = lint_sources(
            tmp_path,
            {"src/repro/engine/batch.py": self.TWO_LOCK_INVERTED},
            rules=["lock-order"],
        )
        assert rules_fired(report) == {"lock-order"}
        assert any("inconsistent lock order" in f.message for f in report.findings)

    def test_consistent_order_is_clean(self, tmp_path):
        source = self.TWO_LOCK_INVERTED.replace(
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                return 2\n",
            "        with self._a_lock:\n"
            "            with self._b_lock:\n"
            "                return 2\n",
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["lock-order"]
        )
        assert report.findings == []

    def test_self_deadlock_on_plain_lock_is_flagged(self, tmp_path):
        source = (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._state_lock = threading.Lock()\n"
            "    def outer(self):\n"
            "        with self._state_lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._state_lock:\n"
            "            return 1\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["lock-order"]
        )
        assert any("re-acquire" in f.message or "self-deadlock" in f.message
                   for f in report.findings)

    def test_rlock_reacquire_is_allowed(self, tmp_path):
        source = (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._state_lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._state_lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._state_lock:\n"
            "            return 1\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["lock-order"]
        )
        assert report.findings == []

    def test_blocking_call_under_state_lock_is_flagged(self, tmp_path):
        source = (
            "import threading\n"
            "import time\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._state_lock = threading.Lock()\n"
            "    def tick(self):\n"
            "        with self._state_lock:\n"
            "            time.sleep(1.0)\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["lock-order"]
        )
        assert any("blocking" in f.message for f in report.findings)

    def test_blocking_call_under_asyncio_lock_is_flagged(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lifecycle_lock = asyncio.Lock()\n"
            "    async def tick(self):\n"
            "        async with self._lifecycle_lock:\n"
            "            time.sleep(1.0)\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/service/server.py": source}, rules=["lock-order"]
        )
        assert any("event loop" in f.message for f in report.findings)

    def test_blocking_callee_under_asyncio_lock_is_flagged(self, tmp_path):
        source = (
            "import asyncio\n"
            "import time\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lifecycle_lock = asyncio.Lock()\n"
            "    def _sync_work(self):\n"
            "        time.sleep(1.0)\n"
            "    async def tick(self):\n"
            "        async with self._lifecycle_lock:\n"
            "            self._sync_work()\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/service/server.py": source}, rules=["lock-order"]
        )
        assert any("event loop" in f.message for f in report.findings)

    def test_awaiting_under_asyncio_lock_is_clean(self, tmp_path):
        source = (
            "import asyncio\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lifecycle_lock = asyncio.Lock()\n"
            "    async def tick(self):\n"
            "        async with self._lifecycle_lock:\n"
            "            await asyncio.sleep(1.0)\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/service/server.py": source}, rules=["lock-order"]
        )
        assert report.findings == []


class TestSuppression:
    def test_suppression_waives_and_counts_the_finding(self, tmp_path):
        source = (
            "import os\n"
            "value = os.environ.get('X')  # reprolint: disable=env-gateway -- test\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["env-gateway"]
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "env-gateway"

    def test_suppression_for_other_rule_does_not_waive(self, tmp_path):
        source = (
            "import os\n"
            "value = os.environ.get('X')  # reprolint: disable=typed-errors\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["env-gateway"]
        )
        assert rules_fired(report) == {"env-gateway"}

    def test_disable_all_waives_everything(self, tmp_path):
        source = (
            "import os\n"
            "value = os.environ.get('X')  # reprolint: disable=all\n"
        )
        report = lint_sources(
            tmp_path, {"src/repro/engine/batch.py": source}, rules=["env-gateway"]
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


class TestRealTree:
    def test_src_repro_is_clean(self):
        report = run_paths([REPO_ROOT / "src" / "repro"])
        assert [f.render() for f in report.findings] == []
        assert report.modules_checked > 50

    def test_cli_exits_zero_on_real_tree(self):
        result = subprocess.run(
            [sys.executable, "-m", "reprolint", str(REPO_ROOT / "src" / "repro")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(TOOLS_DIR), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_cli_exits_one_on_findings(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "engine" / "batch.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nvalue = os.environ.get('X')\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "reprolint", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(TOOLS_DIR), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "env-gateway" in result.stdout

    def test_repro_cli_wires_lint_subcommand(self):
        from repro.cli import lint_main

        assert lint_main(["--list-rules"]) == 0


class TestMypyGate:
    def test_mypy_strict_passes_on_core_surface(self):
        """Run the strict gate locally when mypy is available (CI always runs it)."""
        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed in this environment")
        result = subprocess.run(
            ["mypy", "--config-file", "pyproject.toml"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
