"""Every name a vineshift module exports in __all__ exists.

A stale entry left behind by a deletion would break
`from vineshift.<module> import *` without failing any other test. The
package's own public names are pinned, so adding or removing one is a
visible change to this file. The command line uses only public names
of the other modules.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vineshift

MODULES = ["vineshift"] + [f"vineshift.{m.name}" for m in pkgutil.iter_modules(vineshift.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


PUBLIC = [
    "AdaptationInput", "AdaptationReport", "Dataset", "DegenerateDataError",
    "ExperimentConfig", "FactorDecision", "GaussianCopula", "GaussianKernel1D",
    "IndependenceCopula", "InsufficientDataError", "KernelCopula", "MmdConfig",
    "ParseError", "RegressionMetrics", "SchemaError", "StructureError", "TestResult",
    "VineModel", "YGrid", "adapt_vine", "adaptation_experiment", "conditional_density",
    "conditional_density_batch", "default_grid", "density_bench", "evaluate", "fit_vine",
    "kendall_tau", "load", "mmd_statistic", "permutation_test", "predict_means",
    "rank_pseudo_observations", "read_csv", "save", "silverman_bandwidth", "write_csv",
]


def test_package_public_names_are_pinned():
    assert sorted(vineshift.__all__) == sorted(PUBLIC)
    assert len(set(vineshift.__all__)) == len(vineshift.__all__) == 37


def test_cli_imports_no_private_name():
    # a private helper the CLI needs belongs in its module's public surface
    tree = ast.parse(Path(vineshift.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("vineshift"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
