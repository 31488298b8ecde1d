"""Guards: build and profiling artifacts never land in the tree, the
protocol packages never learn which substrate runs them, and no config
field outlives its last user.

Profiling runs drop ``.folded`` files and Python drops ``__pycache__``
next to whatever module was imported; both are one careless ``git add``
away from being committed.  The only sanctioned profile artifacts are
the committed baselines under ``benchmarks/profiles/``.
"""

import argparse
import ast
import dataclasses
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def tracked_files():
    try:
        out = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable or not a work tree")
    if not out.strip():
        pytest.skip("no tracked files (not a git checkout)")
    return out.splitlines()


def test_no_bytecode_or_cache_dirs_tracked():
    offenders = [f for f in tracked_files()
                 if "__pycache__" in f or f.endswith((".pyc", ".pyo"))]
    assert offenders == []


def test_profile_artifacts_only_under_benchmarks_profiles():
    offenders = [f for f in tracked_files()
                 if f.endswith(".folded")
                 and not f.startswith("benchmarks/profiles/")]
    assert offenders == []


def test_gitignore_covers_profiling_artifacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__" in gitignore
    assert "*.folded" in gitignore
    # The committed-baseline carve-out must stay alongside the ignore.
    assert "!benchmarks/profiles/" in gitignore


def test_no_journal_artifacts_tracked():
    offenders = [f for f in tracked_files()
                 if f.endswith(".jrnl")
                 or Path(f).name == "MANIFEST"
                 or "/store-dir/" in f or f.startswith("store-dir/")]
    assert offenders == []


def test_gitignore_covers_journal_artifacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    assert "*.jrnl" in gitignore
    assert "store-dir/" in gitignore


# ---------------------------------------------------------------------------
# Layering and knobs: two guards that keep parallel code and unread
# options from growing back (ROADMAP item 3).
# ---------------------------------------------------------------------------

SRC = REPO_ROOT / "src" / "repro"

#: Packages that must not know which substrate runs them.
SUBSTRATE_NEUTRAL = ("core", "totem", "obs", "runtime", "store", "orb",
                     "giop", "ftcorba")


def imported_modules(path):
    """Every module a source file imports, wherever the statement sits
    (module level, function body, ``TYPE_CHECKING`` block)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def offending_imports(package, forbidden):
    return sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in (SRC / package).rglob("*.py")
        for module in imported_modules(path)
        if module == forbidden or module.startswith(forbidden + "."))


def test_protocol_packages_import_no_substrate():
    offenders = [line for package in SUBSTRATE_NEUTRAL
                 for substrate in ("repro.simnet", "repro.live")
                 for line in offending_imports(package, substrate)]
    assert offenders == []


def test_substrates_do_not_import_each_other():
    assert offending_imports("live", "repro.simnet") == []
    assert offending_imports("simnet", "repro.live") == []


def keywords_set_outside(own_modules):
    """Names passed as a keyword argument in any call (``EternalConfig(x=)``,
    ``replace(cfg, x=)``, a test helper's ``deploy(x=)`` …) or defaulted
    into a kwargs dict (``kw.setdefault("x", …)``) under the four code
    roots, outside the config modules themselves."""
    names = set()
    for root in ("src", "tests", "benchmarks", "examples"):
        for path in (REPO_ROOT / root).rglob("*.py"):
            if path in own_modules:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                names.update(kw.arg for kw in node.keywords if kw.arg)
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "setdefault" and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    names.add(node.args[0].value)
    return names


def test_every_config_field_is_set_by_someone():
    """A knob stays only if a bench sweeps it, an ablation names it, or a
    test sets it; one nobody sets becomes a module constant beside its
    reader (see the ``repro.core.config`` docstring)."""
    from repro.core import config as eternal
    from repro.totem import config as totem

    used = keywords_set_outside({Path(eternal.__file__).resolve(),
                                 Path(totem.__file__).resolve()})
    unset = [f"{cls.__name__}.{field.name}"
             for cls in (eternal.EternalConfig, totem.TotemConfig)
             for field in dataclasses.fields(cls)
             if field.name not in used]
    assert unset == []


def test_totem_config_has_grown_no_field():
    """Token pacing, the forward-time send and the hold cancel are all
    decided from what a visit observes; a new ring behaviour that needs a
    knob has to argue for it here."""
    from repro.totem.config import TotemConfig

    assert [field.name for field in dataclasses.fields(TotemConfig)] == [
        "token_hold", "token_timeout", "gather_timeout", "join_interval",
        "max_burst", "frame_packing", "retain_safe_slack", "max_queue",
        "probe_interval", "ring_name"]


# ---------------------------------------------------------------------------
# Every frame a ring member listens for crosses the live wire: it needs a
# tag in the codec and a strategy in the codec's property test, or it
# ships un-fuzzed (FormMsg and ProbeMsg did, for thirteen PRs).
# ---------------------------------------------------------------------------

def function_named(path, name):
    return next(node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def name_arguments(function, callee):
    """Every bare-name argument of the ``callee(...)`` calls inside
    ``function``: the ``X`` (and ``msg``) of ``isinstance(msg, X)``."""
    return {arg.id for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and callee == getattr(node.func, "attr",
                                  getattr(node.func, "id", None))
            for arg in node.args if isinstance(arg, ast.Name)}


def test_every_registered_ring_frame_has_a_wire_tag_and_a_fuzz_strategy():
    from tests.properties.test_live_codec_properties import FRAME_STRATEGIES

    registered = name_arguments(
        function_named(SRC / "totem" / "member.py", "__init__"), "register")
    assert len(registered) >= 7
    wire = SRC / "totem" / "wire.py"
    encoded = name_arguments(function_named(wire, "_encode_generic"),
                             "isinstance")
    decoded = {node.func.id
               for node in ast.walk(function_named(wire, "_decode_generic"))
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name)}
    fuzzed = {cls.__name__ for cls in FRAME_STRATEGIES}
    assert sorted(registered - encoded) == []
    assert sorted(registered - decoded) == []
    assert sorted(registered - fuzzed) == []


# ---------------------------------------------------------------------------
# One bench registry: the gate code, the baselines, CI and the flags stay
# rows of repro.bench.registry (ROADMAP item 4(e)).
# ---------------------------------------------------------------------------

BASELINES = REPO_ROOT / "benchmarks" / "baselines"


def test_every_baseline_is_one_registry_row_and_every_row_has_one():
    from repro.bench.regression import BenchRecord
    from repro.bench.registry import BENCHES

    rows = {f"BENCH_{b.record}.json": (b.record, b.metric, b.unit)
            for b in BENCHES}
    assert len(rows) == len(BENCHES)
    committed = {}
    for path in BASELINES.glob("BENCH_*.json"):
        record = BenchRecord.load(str(path))
        committed[path.name] = (record.name, record.metric, record.unit)
    assert committed == rows


def ci_text_with_loops_unrolled():
    """ci.yml, plus every ``for gate in cmd:record …; do … done`` body once
    per pair with ``$cmd`` / ``$record`` substituted."""
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    unrolled = [text]
    for pairs, body in re.findall(r"for gate in (.+?); do\n(.+?)\n\s*done",
                                  text, re.DOTALL):
        for pair in pairs.replace("\\\n", " ").split():
            cmd, _, record = pair.partition(":")
            unrolled.append(body.replace("$cmd", cmd)
                            .replace("$record", record))
    return "\n".join(unrolled)


def test_ci_compares_every_registry_row_against_its_baseline():
    from repro.bench.registry import BENCHES

    ci = ci_text_with_loops_unrolled().replace("\\\n", " ")
    missing = [
        bench.command for bench in BENCHES
        if not re.search(
            rf"python -m repro {bench.command} [^\n]*--compare +"
            rf"benchmarks/baselines/BENCH_{bench.record}\.json", ci)]
    assert missing == []


def test_cli_module_holds_no_gate_code():
    """Recording, comparing and table printing live in bench/registry.py +
    bench/regression.py; ``__main__`` only loops over the rows."""
    tree = ast.parse((SRC / "__main__.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module == "repro.bench.regression"):
            offenders.append(f"line {node.lineno}: imports {node.module}")
        elif isinstance(node, ast.Import):
            offenders += [f"line {node.lineno}: imports {alias.name}"
                          for alias in node.names
                          if alias.name == "repro.bench.regression"]
        elif isinstance(node, ast.Call):
            callee = node.func
            name = (callee.id if isinstance(callee, ast.Name)
                    else getattr(callee, "attr", None))
            if name == "print_table":
                offenders.append(f"line {node.lineno}: calls print_table")
    assert offenders == []


def test_every_registry_flag_is_used_or_documented():
    """A flag a row defines stays only while CI, a test, a benchmark, an
    example or a documented command passes it; one that nobody sets is a
    constant on its row (at PR 15 this listed --tolerance, --max-overhead,
    --min-ratio, --min-speedup, --min-scaling, --pairs, --duration)."""
    from repro.bench.registry import BENCHES, STYLES, add_arguments

    corpus = [(REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()]
    for root in ("tests", "benchmarks", "examples"):
        corpus += [path.read_text()
                   for path in (REPO_ROOT / root).rglob("*.py")
                   if path != Path(__file__).resolve()]
    for doc in ("README.md", "EXPERIMENTS.md"):
        corpus += re.findall(r"```.*?```", (REPO_ROOT / doc).read_text(),
                             re.DOTALL)
    corpus = "\n".join(corpus)

    unused = []
    for bench in (*BENCHES, STYLES):
        parser = argparse.ArgumentParser(add_help=False)
        add_arguments(parser, bench)
        unused += [
            f"{bench.command} {flag}"
            for action in parser._actions for flag in action.option_strings
            if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])",
                             corpus)]
    assert unused == []


# ---------------------------------------------------------------------------
# The frozen end-to-end harness wraps entry points of src/repro *by name*
# (benchmarks/e2e/layers.py); a rename under src/ crashes the traced run
# after the PR is in, where no test sees it.  Fail here instead.
# ---------------------------------------------------------------------------

E2E = REPO_ROOT / "benchmarks" / "e2e"


@pytest.fixture()
def e2e_layers(monkeypatch):
    """``benchmarks/e2e/layers.py`` imported the way ``run.py`` does (its
    directory on ``sys.path``), leaving none of the harness's top-level
    module names (``layers``, ``ledger``, ``driver``) behind."""
    import importlib
    import sys

    monkeypatch.syspath_prepend(str(E2E))
    before = set(sys.modules)
    yield importlib.import_module("layers")
    for name in set(sys.modules) - before:
        origin = getattr(sys.modules[name], "__file__", None) or ""
        if Path(origin).parent == E2E:
            del sys.modules[name]


@pytest.mark.parametrize("substrate", ["live", "sim"])
def test_every_entry_point_the_e2e_harness_wraps_still_exists(
        e2e_layers, substrate):
    missing = [
        f"{target.layer}: {target.entry}"
        for target in e2e_layers.targets(substrate, e2e_layers.OrderWait())
        if not callable(getattr(target.owner, target.name, None))]
    assert missing == []


def test_nothing_in_src_opens_a_segment_dispatcher():
    """``SegmentDispatcher`` survives only as a name the frozen harness
    wraps (see its docstring): a broadcast fans out from the sender, so no
    source module may construct one or route through a segment address."""
    offenders = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.id if isinstance(callee, ast.Name)
                        else getattr(callee, "attr", None))
                if name == "SegmentDispatcher":
                    offenders.append(f"{path.relative_to(SRC)}:"
                                     f"{node.lineno} constructs it")
            names = [getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name")]
            if any(isinstance(n, str) and "segment_addr" in n
                   for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"names a segment_addr")
    assert offenders == []
