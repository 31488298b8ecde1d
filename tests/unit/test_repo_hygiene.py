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
import importlib
import re
import subprocess
import typing
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
    ``replace(cfg, x=)``, a helper's ``deploy(x=)`` …) or defaulted into a
    kwargs dict (``kw.setdefault("x", …)``) under ``src/``, ``benchmarks/``
    and ``examples/``, outside the config modules themselves.  A test is no
    caller: it monkeypatches the module constant instead."""
    names = set()
    for root in ("src", "benchmarks", "examples"):
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
    """A knob stays only if a bench sweeps it, an ablation names it, or
    the program itself sets it; one only a test turns becomes a module
    constant beside its reader (see the ``repro.core.config`` docstring)."""
    from repro.core import config as eternal
    from repro.obs.profiling import ProfilingConfig
    from repro.obs.telemetry import TelemetryConfig
    from repro.totem import config as totem

    used = keywords_set_outside({Path(eternal.__file__).resolve(),
                                 Path(totem.__file__).resolve()})
    unset = [f"{cls.__name__}.{field.name}"
             for cls in (eternal.EternalConfig, totem.TotemConfig,
                         TelemetryConfig, ProfilingConfig)
             for field in dataclasses.fields(cls)
             if field.name not in used]
    assert unset == []


def test_totem_config_has_grown_no_field():
    """Token pacing, the forward-time send and the hold cancel are all
    decided from what a visit observes, and the windows nobody varies are
    ``member`` constants; a new ring behaviour that needs a knob has to
    argue for it here."""
    from repro.totem.config import TotemConfig

    assert [field.name for field in dataclasses.fields(TotemConfig)] == [
        "token_hold", "token_timeout", "gather_timeout", "join_interval",
        "frame_packing", "probe_interval", "ring_name"]


# ---------------------------------------------------------------------------
# Every frame a ring member, the bulk lane or the read-lease coordinator
# listens for crosses the live wire: it needs a row in the codec table and
# a strategy in the codec's property test, or it ships un-fuzzed (FormMsg
# and ProbeMsg did, for thirteen PRs).
# ---------------------------------------------------------------------------

FRAME_LISTENERS = (("totem.member", "TotemMember"),
                   ("core.bulk", "BulkLane"),
                   ("core.readfast", "ReadFastCoordinator"))


def registered_payload_classes():
    """The ``X`` of every ``register(X, handler)`` call in each frame
    listener's ``__init__``, resolved in the listener's module."""
    classes = []
    for module_name, class_name in FRAME_LISTENERS:
        path = SRC.joinpath(*module_name.split(".")).with_suffix(".py")
        owner = next(node for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ClassDef)
                     and node.name == class_name)
        init = next(node for node in owner.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "__init__")
        module = importlib.import_module(f"repro.{module_name}")
        classes += [getattr(module, node.args[0].id)
                    for node in ast.walk(init)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "register"
                    and isinstance(node.args[0], ast.Name)]
    return classes


def test_every_registered_ring_frame_has_a_wire_tag_and_a_fuzz_strategy():
    from repro.totem import wire
    from tests.properties.test_live_codec_properties import FRAME_STRATEGIES

    registered = registered_payload_classes()
    assert len(registered) >= 13
    tags = [tag for tag, _ in wire.FRAMES.rows]
    assert len(set(tags)) == len(tags)
    tabled = {codec.cls for _, codec in wire.FRAMES.rows}
    assert sorted(cls.__name__ for cls in registered
                  if cls not in tabled) == []
    assert sorted(cls.__name__ for cls in registered
                  if cls not in FRAME_STRATEGIES) == []


# ---------------------------------------------------------------------------
# One codec kit: the CDR primitives and the record builder exist once, in
# repro.giop.cdr, and the oracles that check them share none of it.
# ---------------------------------------------------------------------------

#: A CDR read/write primitive, by name: ``r_ulong``, ``_w_u32``, ...
CDR_PRIMITIVE = re.compile(r"_*[rw]_\w+")
#: A ``struct`` format of CDR scalars in an explicit byte order.
CDR_SCALARS = re.compile(r"[<>!][BbHhIiQqfd?]+")
STRUCT_CALLS = {"Struct", "pack", "unpack", "pack_into", "unpack_from"}


def cdr_primitive_definitions(path):
    """Functions named like a CDR primitive, and ``struct`` calls on a
    format of CDR scalars, that ``path`` defines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.FunctionDef)
                and CDR_PRIMITIVE.fullmatch(node.name)):
            found.append(f"def {node.name}")
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) in STRUCT_CALLS
              and getattr(node.func.value, "id", None) == "struct"
              and node.args and isinstance(node.args[0], ast.Constant)
              and CDR_SCALARS.fullmatch(str(node.args[0].value))):
            found.append(f"struct.{node.func.attr}({node.args[0].value!r})")
    return found


def test_only_the_codec_kit_defines_cdr_primitives():
    kit = SRC / "giop" / "cdr.py"
    assert cdr_primitive_definitions(kit)       # the check sees them
    offenders = {str(path.relative_to(SRC)): found
                 for path in sorted(SRC.rglob("*.py")) if path != kit
                 for found in [cdr_primitive_definitions(path)] if found}
    assert offenders == {}


def test_the_oracles_share_no_code_with_the_codec_kit():
    # No primitive, kind or builder of repro.giop.cdr may reach the
    # references the codecs are checked against.
    for oracle in ("cdr_oracle.py", "giop_oracle.py"):
        tree = ast.parse((REPO_ROOT / "tests" / "properties" / oracle)
                         .read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module} | {f"{node.module}.{alias.name}"
                                             for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
        assert "repro.giop.cdr" not in imported, oracle


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


def test_ring_member_schedules_timers_only_through_arm():
    """Every timer a ring member holds belongs to its current phase
    (PROTOCOL.md §5.1): ``_arm`` files it in the table ``_set_state``
    empties, so no other code in the module may schedule one."""
    path = SRC / "totem" / "member.py"
    tree = ast.parse(path.read_text(), str(path))
    scheduling = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("call_after", "call_at")]
    callers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if node in scheduling]
    assert callers == ["_arm"] and len(scheduling) == 1


# ---------------------------------------------------------------------------
# One signal plane: the telemetry poll is the one reader of live state, and
# every series the metrics registry can hold — and every trace record kind
# and counter the program writes — is a row of a README inventory naming
# the code or document that reads it (ROADMAP item 9).  One checker serves
# both inventories.
# ---------------------------------------------------------------------------

#: A registry series is created by ``counter/gauge/histogram("name", …)``
#: or by the telemetry poll's ``put("name", …)``; an f-string name keeps
#: its literal head as a family (``f"span.{name}"`` is ``span.*``).
SERIES_CALL = re.compile(
    r'\b(?:counter|gauge|histogram|put)\(\s*(f?)"([^"{]+)(\{?)')

#: A record is written by ``emit("category", "event", …)`` and a counter
#: by ``add("key", …)``: what a reader's text is searched without.
RECORD_CALL = re.compile(r'\.(?:emit\(\s*"\w+",\s*"\w+"|add\(\s*"[\w.]+")')


def series_spelling(row):
    """How a reader names a series: itself, or its exposition name."""
    return (f"(?:{re.escape(row)}|eternal_"
            f"{re.escape(row.replace('.', '_'))})(?!\\w)")


def record_spelling(row):
    """How a reader names a record kind: ``category.event``, or the
    quoted event name it matches records against."""
    event = re.escape(row.partition(".")[2])
    return f"(?:{re.escape(row)}(?!\\w)|[\"']{event}[\"'])"


class Table(typing.NamedTuple):
    heading: str                    # the paragraph the table follows
    creating_call: "re.Pattern"     # stripped before a reader is searched
    spelling: typing.Callable[[str], str]


SIGNALS = Table("**Signal inventory.**", SERIES_CALL, series_spelling)
RECORDS = Table("**Record inventory.**", RECORD_CALL, record_spelling)


def created_series():
    """series (or ``head*`` family) -> the source file creating it."""
    created = {}
    for path in sorted(SRC.rglob("*.py")):
        for fstring, head, brace in SERIES_CALL.findall(path.read_text()):
            name = head + "*" if fstring and brace else head
            created.setdefault(name, str(path.relative_to(REPO_ROOT)))
    return created


def _string_constants(tree):
    """Module-level ``NAME = "text"`` assignments."""
    return {target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets if isinstance(target, ast.Name)}


def _table_column(tree, field):
    """The strings a module-level ``NamedTuple`` table holds in ``field``
    (``_Source(..., "failover_begin", ...)`` rows), or None."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [node.target.id for node in cls.body
                  if isinstance(node, ast.AnnAssign)]
        if field not in fields:
            continue
        index = fields.index(field)
        return {call.args[index].value for call in ast.walk(tree)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == cls.name
                and len(call.args) > index
                and isinstance(call.args[index], ast.Constant)
                and isinstance(call.args[index].value, str)}
    return None


def _spelled(arg, constants, tree):
    """The strings an ``emit`` argument can be: a literal, a module
    constant, or a column of a module-level table."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return {arg.value}
    if isinstance(arg, ast.Name) and arg.id in constants:
        return {constants[arg.id]}
    if isinstance(arg, ast.Attribute):
        return _table_column(tree, arg.attr)
    return None


def written_kinds(paths):
    """``(records, counters, unspelled)``: record kind -> file emitting it,
    counter key -> file bumping it, and every emit whose kind no literal,
    constant or table spells.  The tracer's own forwarding is skipped."""
    records, counters, unspelled = {}, {}, []
    for path in paths:
        if path == SRC / "runtime" / "trace.py":
            continue
        where = str(path.relative_to(REPO_ROOT)) if path.is_relative_to(
            REPO_ROOT) else str(path)
        tree = ast.parse(path.read_text(), str(path))
        constants = _string_constants(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "emit" and len(node.args) >= 2:
                category = _spelled(node.args[0], constants, tree)
                events = _spelled(node.args[1], constants, tree)
                if not category or not events:
                    unspelled.append(f"{where}:{node.lineno}")
                    continue
                for kind in (f"{c}.{e}" for c in category for e in events):
                    records.setdefault(kind, where)
            elif (node.func.attr == "add" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Constant)
                    and "." in str(node.args[0].value)):
                counters.setdefault(node.args[0].value, where)
    return records, counters, unspelled


def inventory_cells(table):
    """A README inventory as ``{row: its last cell}``, plus the README
    text outside the table."""
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith(table.heading))
    while not lines[start].startswith("|"):
        start += 1
    end = start
    while lines[end].startswith("|"):
        end += 1
    cells = {}
    for line in lines[start:end]:
        row = [cell.strip() for cell in line.strip("|").split("|")]
        if row[0].startswith("`"):
            cells[row[0].strip("`")] = row[-1]
    return cells, "\n".join(lines[:start] + lines[end:])


def inventory(table):
    """A README inventory as ``{row: consumer path}`` (the first path its
    reader cell names), plus the README text outside the table (a README
    row's reader is prose)."""
    cells, prose = inventory_cells(table)
    rows = {}
    for row, cell in cells.items():
        consumer = re.search(r"`([\w./-]+\.(?:py|md))`", cell)
        rows[row] = consumer.group(1) if consumer else ""
    return rows, prose


def family(name, rows):
    """The inventory row covering ``name`` (exact, or a ``head*`` row)."""
    if name in rows:
        return name
    return next((row for row in rows if row.endswith("*")
                 and name.startswith(row[:-1])), None)


def inventory_problems(table, created, rows, read):
    """Every mismatch between what the code creates and an inventory:
    unlisted names, rows nothing creates, and rows whose reader is a
    test, missing, or does not name the row.  ``read`` maps a consumer
    path to its text."""
    problems = [f"{name} ({path}) is not in the inventory"
                for name, path in sorted(created.items())
                if family(name, rows) is None]
    problems += [f"{row} is listed but nothing creates it"
                 for row in sorted(rows)
                 if not any(family(name, {row: ""}) for name in created)]
    for row, consumer in sorted(rows.items()):
        if not consumer or consumer.startswith("tests/"):
            problems.append(f"{row}: {consumer or 'no'} reader is no "
                            f"consumer")
            continue
        # The creating call is not a read: strip it before looking.
        text = table.creating_call.sub("", read(consumer))
        spelled = (re.escape(row[:-1]) if row.endswith("*")
                   else table.spelling(row))
        if not re.search(rf"(?<![\w.]){spelled}", text):
            problems.append(f"{row}: {consumer} does not name it")
    return problems


def exclusion_problems(lists, records):
    """Entries of the record-exclusion lists that name no record kind
    (a ``"category"`` entry needs one record kind in that category)."""
    return [f"{name} names {entry}, which is not a record kind"
            for name, entries in sorted(lists.items())
            for entry in sorted(entries)
            if entry not in records
            and not any(kind.startswith(entry + ".") for kind in records)]


def exclusion_lists():
    """Every list of record kinds the program spells out: the flight
    recorder's exclusions, the timeline's per-message kinds, and the
    kinds each declared subscriber reads (a misspelt one would never
    reach its reader)."""
    from repro.obs.audit import ConsistencyAuditor
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import FLIGHT_EXCLUDE
    from repro.tools.fuzz import _Run
    from repro.tools.timeline import PER_MESSAGE_EVENTS

    return {"FLIGHT_EXCLUDE": set(FLIGHT_EXCLUDE),
            "ConsistencyAuditor.KINDS": set(ConsistencyAuditor.KINDS),
            "MetricsRegistry.KINDS": set(MetricsRegistry.KINDS),
            "fuzz._Run.KINDS": set(_Run.KINDS),
            "PER_MESSAGE_EVENTS": {".".join(pair)
                                   for pair in PER_MESSAGE_EVENTS}}


def read_consumer(prose):
    def read(path):
        if path == "README.md":
            return prose
        target = REPO_ROOT / path
        return target.read_text() if target.is_file() else ""
    return read


def test_every_registry_series_is_in_the_inventory_with_its_reader():
    rows, prose = inventory(SIGNALS)
    assert inventory_problems(SIGNALS, created_series(), rows,
                              read_consumer(prose)) == []


def test_an_orphan_series_fails_the_inventory_by_name():
    rows, prose = inventory(SIGNALS)
    created = dict(created_series(), **{"orphan.depth": "src/repro/x.py"})
    listed = dict(rows, **{"orphan.depth": "src/repro/obs/telemetry.py"})
    assert inventory_problems(SIGNALS, created, rows,
                              read_consumer(prose)) == [
        "orphan.depth (src/repro/x.py) is not in the inventory"]
    assert inventory_problems(SIGNALS, created, listed,
                              read_consumer(prose)) == [
        "orphan.depth: src/repro/obs/telemetry.py does not name it"]


def source_files():
    return sorted(SRC.rglob("*.py"))


def test_every_record_kind_and_counter_is_in_the_inventory_with_its_reader():
    records, counters, unspelled = written_kinds(source_files())
    assert unspelled == []
    rows, prose = inventory(RECORDS)
    assert inventory_problems(RECORDS, {**counters, **records}, rows,
                              read_consumer(prose)) == []


def test_exclusion_lists_name_only_record_kinds():
    records, _, _ = written_kinds(source_files())
    assert exclusion_problems(exclusion_lists(), records) == []


def test_an_unlisted_emit_fails_the_record_inventory_by_name(tmp_path):
    orphan = tmp_path / "orphan.py"
    orphan.write_text('def f(tracer):\n'
                      '    tracer.emit("orphan", "kind", node="n")\n'
                      '    tracer.emit("orphan", f"{tracer}")\n')
    records, counters, unspelled = written_kinds(
        [*source_files(), orphan])
    rows, prose = inventory(RECORDS)
    assert unspelled == [f"{orphan}:3"]
    assert inventory_problems(RECORDS, {**counters, **records}, rows,
                              read_consumer(prose)) == [
        f"orphan.kind ({orphan}) is not in the inventory"]


def test_a_row_nothing_emits_or_only_a_test_reads_fails_by_name():
    records, counters, _ = written_kinds(source_files())
    created = {**counters, **records}
    rows, prose = inventory(RECORDS)
    unwritten = dict(rows, **{"orphan.unread": "src/repro/obs/audit.py"})
    assert inventory_problems(RECORDS, created, unwritten,
                              read_consumer(prose)) == [
        "orphan.unread is listed but nothing creates it",
        "orphan.unread: src/repro/obs/audit.py does not name it"]
    test_read = dict(rows, **{"replication.duplicate":
                              "tests/unit/bench/test_counter_parity.py"})
    assert inventory_problems(RECORDS, created, test_read,
                              read_consumer(prose)) == [
        "replication.duplicate: tests/unit/bench/test_counter_parity.py "
        "reader is no consumer"]


def test_an_exclusion_entry_naming_a_counter_fails_by_name():
    records, counters, _ = written_kinds(source_files())
    assert "replication.duplicate" in counters
    lists = exclusion_lists()
    lists["FLIGHT_EXCLUDE"].add("replication.duplicate")
    lists["PER_MESSAGE_EVENTS"].add("net")
    assert exclusion_problems(lists, records) == [
        "FLIGHT_EXCLUDE names replication.duplicate, which is not a "
        "record kind",
        "PER_MESSAGE_EVENTS names net, which is not a record kind"]


def declared_readers():
    """Subscriber source file -> the record kinds it subscribes to."""
    from repro.obs.audit import ConsistencyAuditor
    from repro.obs.metrics import MetricsRegistry

    return {"src/repro/obs/audit.py": ConsistencyAuditor.KINDS,
            "src/repro/obs/metrics.py": MetricsRegistry.KINDS}


def reader_problems(declared, cells, records):
    """Both ways between the kinds a subscriber declares (a
    ``"category"`` entry covers each record kind of it) and the rows
    whose reader cell names the subscriber's file."""
    problems = []
    for path, entries in sorted(declared.items()):
        reads = {kind for kind in records
                 if kind in entries or kind.partition(".")[0] in entries}
        listed = {row for row, cell in cells.items() if f"`{path}`" in cell}
        problems += [f"{kind}: {path} subscribes to it, README does not "
                     f"list it as a reader" for kind in sorted(reads - listed)]
        problems += [f"{kind}: README lists {path} as a reader, which "
                     f"does not subscribe to it"
                     for kind in sorted(listed - reads)]
    return problems


def test_declared_subscriber_kinds_match_the_record_inventory():
    records, _, _ = written_kinds(source_files())
    cells, _ = inventory_cells(RECORDS)
    assert reader_problems(declared_readers(), cells, records) == []


def test_a_declared_kind_the_inventory_misses_fails_by_name():
    records, _, _ = written_kinds(source_files())
    cells, _ = inventory_cells(RECORDS)
    declared = declared_readers()
    audit, metrics = "src/repro/obs/audit.py", "src/repro/obs/metrics.py"
    declared[audit] = (*declared[audit], "fault.crash")
    declared[metrics] = tuple(kind for kind in declared[metrics]
                              if kind != "totem.token")
    assert reader_problems(declared, cells, records) == [
        f"fault.crash: {audit} subscribes to it, README does not list it "
        f"as a reader",
        f"totem.token: README lists {metrics} as a reader, which does not "
        f"subscribe to it"]


def test_health_renders_the_registry_and_walks_no_stack():
    """``render_health`` polls and renders; it never reads a stack, a
    node's mechanisms or a replica binding itself."""
    path = SRC / "obs" / "health.py"
    touched = sorted({node.attr for node in ast.walk(ast.parse(
        path.read_text())) if isinstance(node, ast.Attribute)
        and node.attr in ("stacks", "mechanisms", "bindings")})
    assert touched == []
