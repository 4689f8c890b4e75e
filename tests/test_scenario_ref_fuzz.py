"""Fuzzing the ``--scenario`` trust boundary.

A scenario reference arrives as outside text (the CLI's ``--scenario``,
the server's ``?scenario=``).  Whatever the text, parsing it and
normalising it against its registry entry either yields a
:class:`ScenarioRef` or raises :class:`ScenarioParamError` /
:class:`UnknownScenarioError` — never any other exception.  The CLI
turns those errors into exit status 2 and a one-line ``scenario error:``
message, never a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    ScenarioParamError,
    ScenarioRef,
    UnknownScenarioError,
    parse_scenario_ref,
    registered_scenarios,
    resolve_scenario,
)

ROOT = Path(__file__).resolve().parent.parent

_ENTRIES = {entry.name: entry for entry in registered_scenarios()}

#: Fragments of the ``NAME[:k=v,...]`` grammar, so examples reach the
#: converters instead of failing at the first character.
_NAMES = st.sampled_from(sorted(_ENTRIES) + ["", " ", "nope", "synthetic "])
_KEYS = st.sampled_from(
    ["seed", "networks", "links", "eras", "decoys", "west_lat", "west_lon",
     "east_lat", "east_lon", "", " ", "bogus"]
)
_VALUES = st.one_of(
    st.sampled_from(
        ["7", "07", "-1", "0", "nan", "inf", "-inf", "1e309", "1_000",
         "0x10", "", " ", "1.5", "١٢", "=", ",", ":"]
    ),
    st.text(max_size=6),
)
_PAIRS = st.lists(
    st.tuples(_KEYS, st.sampled_from(["=", "", "=="]), _VALUES).map(
        lambda kv: "".join(kv)
    ),
    max_size=4,
)
_GRAMMAR_REFS = st.builds(
    lambda name, sep, pairs: name + sep + ",".join(pairs),
    _NAMES,
    st.sampled_from([":", "", "::"]),
    _PAIRS,
)


def _parse_and_normalise(text: str) -> ScenarioRef:
    """What ``resolve_scenario`` does before it builds anything."""
    ref = parse_scenario_ref(text)
    entry = _ENTRIES.get(ref.name)
    if entry is None:
        # An unknown name fails before anything is built.
        resolve_scenario(ref)
        pytest.fail(f"resolved unregistered scenario {ref.name!r}")
    normal, kwargs = entry.normalise(ref)
    assert sorted(kwargs) == [key for key, _ in normal.params]
    return normal


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _GRAMMAR_REFS))
def test_any_reference_parses_or_fails_structurally(text):
    try:
        ref = _parse_and_normalise(text)
    except (ScenarioParamError, UnknownScenarioError):
        return
    assert isinstance(ref, ScenarioRef)
    assert ref.name in _ENTRIES


@pytest.mark.parametrize(
    "ref",
    [
        "synthetic:west_lat=nan",
        "synthetic:east_lon=1e309",
        ":seed=1",
        "synthetic:seed=1,seed=2",
        "synthetic:seed",
        "nope",
    ],
)
def test_cli_reports_a_malformed_reference_without_a_traceback(ref):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "table1", "--scenario", ref],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("scenario error:"), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
