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


def test_the_package_reads_no_new_environment_variable():
    # a setting is an argument or a config field, not a variable of the
    # environment; modelfile reads SOURCE_DATE_EPOCH to stamp saved files
    env = {"environ", "getenv"}
    reads = []
    for path in sorted(Path(vineshift.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) not in env:
                continue
            use = parent[node]
            while not isinstance(use, (ast.Call, ast.Subscript, ast.stmt)):
                use = parent[use]
            first = use.args[:1] if isinstance(use, ast.Call) else [getattr(use, "slice", None)]
            name = first[0].value if first and isinstance(first[0], ast.Constant) else None
            reads.append((path.name, name))
    assert reads == [("modelfile.py", "SOURCE_DATE_EPOCH")]
