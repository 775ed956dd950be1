"""Documentation and packaging integrity.

Guards the non-code deliverables: the documents exist and reference real
artifacts, every public module carries a docstring, and every package's
``__all__`` resolves.
"""

import importlib
import pathlib
import pkgutil
import re

import pytest

import repro
from tests.test_cli import registered_commands

REPO = pathlib.Path(repro.__file__).resolve().parents[2]

USER_DOCS = ["README.md", ".claude/skills/verify/SKILL.md"] + sorted(
    str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md"))

#: ``python -m repro <cmd>`` or `` `repro <cmd>`` — but not a process
#: lane label such as ``repro main (pid N)``
COMMAND_CITATION = re.compile(
    r"(?:python3? -m repro|`repro) ([a-z][\w-]*)(?![\w-]| \()")

PACKAGES = [
    "repro", "repro.isa", "repro.trace", "repro.memory", "repro.branch",
    "repro.corun", "repro.frontend", "repro.window", "repro.core",
    "repro.simulator",
    "repro.experiments", "repro.extensions", "repro.ingest", "repro.statsim",
    "repro.telemetry", "repro.util", "repro.runner", "repro.service",
    "repro.spec", "repro.explore", "repro.obs",
]


class TestDocumentsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/MODEL.md",
        "docs/CONFIGURATION.md", "docs/EXPLORATION.md", "docs/TRACE.md",
        "docs/WORKLOADS.md", "docs/SCENARIOS.md",
        "examples/baseline_spec.json", "examples/corun_spec.json",
        "examples/sample_trace.csv", "LICENSE", "pyproject.toml",
    ])
    def test_document_present_and_nonempty(self, name):
        path = REPO / name
        assert path.is_file(), name
        assert path.stat().st_size > 200

    def test_design_references_existing_bench_targets(self):
        text = (REPO / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(test_\w+\.py)", text):
            assert (REPO / "benchmarks" / target).is_file(), target

    def test_readme_references_existing_examples(self):
        text = (REPO / "README.md").read_text()
        for example in re.findall(r"examples/(\w+\.py)", text):
            assert (REPO / "examples" / example).is_file(), example

    def test_every_paper_figure_has_a_bench(self):
        benches = {p.name for p in (REPO / "benchmarks").glob("test_*.py")}
        for artifact in ("fig02", "tab01", "fig04", "fig05", "fig06",
                         "fig08", "fig09", "fig11", "fig14", "fig15",
                         "fig16", "fig17", "fig18", "fig19"):
            assert any(artifact in b for b in benches), artifact

    @pytest.mark.parametrize("name", USER_DOCS)
    def test_doc_cites_real_commands_and_files(self, name):
        path = REPO / name
        text = path.read_text()
        unknown = set(COMMAND_CITATION.findall(text)) - registered_commands()
        assert not unknown, unknown
        for target in re.findall(r"\]\(([^)\s]+)\)", text):
            if "://" in target or target.startswith("#"):
                continue
            assert (path.parent / target.split("#")[0]).exists(), target

    def test_environment_table_matches_the_registry(self):
        from repro.spec import env

        text = (REPO / "docs" / "CONFIGURATION.md").read_text()
        table = text.split("## Environment variables", 1)[1].split("\n## ")[0]
        documented = re.findall(r"^\| `(REPRO_\w+)`", table, re.MULTILINE)
        assert sorted(documented) == sorted(env.REGISTRY)

    def test_at_least_three_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert any(e.name == "quickstart.py" for e in examples)


class TestModuleHygiene:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_docstring(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.{name}"

    def test_every_submodule_has_a_docstring(self):
        for package in PACKAGES:
            mod = importlib.import_module(package)
            for info in pkgutil.iter_modules(mod.__path__ if hasattr(
                    mod, "__path__") else []):
                sub = importlib.import_module(f"{package}.{info.name}")
                assert sub.__doc__, f"{package}.{info.name}"

    def test_version_is_declared(self):
        assert re.match(r"\d+\.\d+\.\d+", repro.__version__)
