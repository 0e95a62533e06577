"""Public-API hygiene: exports exist, are documented, and import cleanly."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

PUBLIC_MODULES = [
    "repro",
    "repro.geometry",
    "repro.optimize",
    "repro.channel",
    "repro.environment",
    "repro.mobility",
    "repro.core",
    "repro.baselines",
    "repro.net",
    "repro.eval",
    "repro.serving",
    "repro.cluster",
    "repro.guard",
    "repro.extensions",
    "repro.tracking",
    "repro.sessions",
    "repro.planning",
    "repro.viz",
    "repro.data",
    "repro.analysis",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
class TestPublicAPI:
    def test_imports(self, module_name):
        importlib.import_module(module_name)

    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_all_exports_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_every_public_item_documented(self, module_name):
        """Deliverable (e): doc comments on every public item."""
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
                if inspect.isclass(obj):
                    for meth_name, meth in inspect.getmembers(
                        obj, inspect.isfunction
                    ):
                        if meth_name.startswith("_"):
                            continue
                        if meth.__qualname__.split(".")[0] != obj.__name__:
                            continue  # inherited from elsewhere
                        assert meth.__doc__, (
                            f"{module_name}.{name}.{meth_name} lacks a "
                            "docstring"
                        )


class TestRemovedNames:
    """One path per stage: retired twins stay gone from ``src/``.

    The scalar references that survive live in ``tests/oracles``.
    """

    @pytest.mark.parametrize(
        "module_name, name",
        [
            ("repro.serving", "WorkerPool"),
            ("repro.serving", "ProcessWorkerPool"),
            ("repro.core", "PieceMapper"),
            ("repro.core.localizer", "PieceMapper"),
            ("repro.core", "pairwise_constraints"),
            ("repro.core.constraints", "pairwise_constraints"),
            ("repro.geometry", "clip_polygon"),
            ("repro.geometry.halfspace", "clip_polygon"),
            ("repro.geometry.halfspace", "_SCALAR_LANES"),
            ("repro.cluster", "ClusterReplica"),
            ("repro.cluster", "FaultPlan"),
            ("repro.cluster", "HealthMonitor"),
            ("repro.cluster", "ReplicaCrashed"),
            ("repro.cluster", "RetryBudget"),
            ("repro.cluster", "RetryPolicy"),
            ("repro.optimize", "chebyshev_center"),
            ("repro.optimize", "chebyshev_center_batch"),
            ("repro.optimize", "solve_lp"),
            ("repro.optimize", "simplex_standard_form"),
            ("repro.optimize", "InequalityLP"),
            ("repro.optimize", "barrier_solve_lp"),
            ("repro.optimize.interior_point", "barrier_solve_lp"),
            ("repro.geometry", "intersect_halfspaces_batch"),
            ("repro.geometry.halfspace", "intersect_halfspaces_batch"),
            ("repro.geometry.halfspace", "_intersect_rows"),
        ],
    )
    def test_not_exported(self, module_name, name):
        module = importlib.import_module(module_name)
        assert name not in getattr(module, "__all__", [])
        assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "class_path, attr",
        [
            ("repro.core.NomLocLocalizer", "build_shared_constraints"),
            ("repro.core.NomLocLocalizer", "solve_piece"),
            ("repro.core.NomLocLocalizer", "_solution_from_relaxation"),
            ("repro.channel.CSISynthesizer", "synthesize_batch_scalar"),
            ("repro.cluster.LocalizationCluster", "heartbeat"),
            ("repro.cluster.LocalizationCluster", "replica_states"),
            ("repro.cluster.LocalizationCluster", "note_topology_change"),
            ("repro.cluster.ShardRouter", "replica_order"),
        ],
    )
    def test_method_removed(self, class_path, attr):
        module_name, class_name = class_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), class_name)
        assert not hasattr(cls, attr)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.optimize.chebyshev",
            "repro.optimize.simplex",
            "repro.optimize.linprog",
        ],
    )
    def test_module_removed(self, module_name):
        assert importlib.util.find_spec(module_name) is None

    def test_center_method_has_no_chebyshev(self):
        from repro.core import CenterMethod

        assert not hasattr(CenterMethod, "CHEBYSHEV")
        assert {m.value for m in CenterMethod} == {"centroid", "analytic"}

    def test_src_imports_neither_scipy_nor_tests(self):
        """scipy and the oracles in ``tests/`` are test-only references."""
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] in {"scipy", "tests"}:
                        offenders.append(f"{path.relative_to(SRC_ROOT)}: {name}")
        assert not offenders, offenders

    def test_localizer_config_field_count_unchanged(self):
        from dataclasses import fields

        from repro.core import LocalizerConfig

        assert len(fields(LocalizerConfig)) == 5

    def test_serving_config_has_no_worker_mode_knobs(self):
        from dataclasses import fields

        from repro.serving import ServingConfig

        names = {f.name for f in fields(ServingConfig)}
        assert not names & {"worker_mode", "parallel_pieces"}
        assert len(names) == 10

    def test_cluster_configs_have_no_replica_or_fault_knobs(self):
        from dataclasses import fields

        from repro.cluster import ClusterConfig
        from repro.gateway import GatewayConfig

        cluster = {f.name for f in fields(ClusterConfig)}
        assert cluster == {"num_shards", "serving", "latency_window"}
        assert "replicas_per_shard" not in {f.name for f in fields(GatewayConfig)}


class TestVersioning:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2
