"""Fuzzed CLI inputs: every run ends in exit 0, 1 or 2 and never raises."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from macc import build_scheme, mn_pda, scheme_to_json, serialize_pda
from macc.cli import main

FUZZ = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# A tiny valid scheme (K=3, L=2) whose descriptor the scheme strategy mutates.
BASE_DOC = json.loads(scheme_to_json(build_scheme(mn_pda(2, 1), 3, 2), include_arrays=True))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "array.pda").write_text(serialize_pda(mn_pda(2, 1)))
    (d / "binary.pda").write_bytes(b"\xff\xfe\x00")
    return d


def run_cli(workdir, argv) -> None:
    assert main([*argv, "-o", str(workdir / "report.json")]) in (0, 1, 2), argv


# Array files: a header of four numbers and rows of tokens, each piece
# sometimes malformed; or any short text; or bytes that may not be UTF-8.
token = st.sampled_from(["*", "1", "2", "3", "4", "0", "-1", "x", "9"])
header = st.lists(st.sampled_from(["0", "1", "2", "3", "4", "-1", "a"]), min_size=3, max_size=5)
array_text = st.one_of(
    st.builds(
        lambda head, rows: "\n".join([" ".join(head)] + [" ".join(r) for r in rows]) + "\n",
        header,
        st.lists(st.lists(token, min_size=1, max_size=4), max_size=5),
    ),
    st.text(max_size=30),
    st.binary(max_size=12),
)
small = st.integers(-1, 7)


@FUZZ
@given(text=array_text, l=st.one_of(st.none(), small), k=small, emit=st.booleans())
def test_verify_and_transform_never_raise(workdir, text, l, k, emit):
    path = workdir / "fuzz.pda"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    run_cli(workdir, ["verify", "--pda", str(path)] + ([] if l is None else [f"--L={l}"]))
    run_cli(workdir, ["transform", "--pda", str(path), f"--K={k}", f"--L={1 if l is None else l}"]
              + (["--emit-arrays"] if emit else []))


json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# Where a fuzzed value may land in the base descriptor: None replaces the
# whole document, and the pda path slot takes a drawn file name instead.
SLOTS = [None, ("format",), ("params",), ("params", "k"), ("params", "l"), ("params", "n"),
         ("pda",), ("pda", "inline"), ("pda", "path"), ("arrays",),
         ("arrays", "node_placement"), ("arrays", "user_delivery")]
pda_path = st.sampled_from(["array.pda", "binary.pda", "missing.pda", "array.pda/x", ".", "a\x00b"])
demand = st.one_of(
    st.sampled_from(["random", "random:", "random:7", "random:-3", "random:x", "1,2,3", "3,3,3,3"]),
    st.text(alphabet="random:,0123456789- ", max_size=12),
)


@FUZZ
@given(slot=st.sampled_from(SLOTS), value=json_value, path=pda_path, spec=demand,
       packet_bytes=st.one_of(st.integers(-1, 3), st.sampled_from([400_000_000, 2**70])),
       compressed=st.booleans())
def test_simulate_never_raises(workdir, slot, value, path, spec, packet_bytes, compressed):
    doc = json.loads(json.dumps(BASE_DOC))
    if slot is None:
        doc = value
    elif slot == ("pda", "path"):
        doc["pda"] = {"path": str(workdir / path)}
    else:
        *parents, last = slot
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    scheme = workdir / "scheme.json"
    scheme.write_text(json.dumps(doc))
    run_cli(workdir, ["simulate", "--scheme", str(scheme), f"--demand={spec}",
                        f"--packet-bytes={packet_bytes}", "--check-all-users"]
              + (["--compressed"] if compressed else []))


huge = st.one_of(st.integers(-1, 6), st.sampled_from([12, 20, 40, 60, 10**6, 2**70]))


@FUZZ
@given(family=st.sampled_from(["mn", "partition"]), a=huge, b=huge)
@example(family="mn", a=40, b=20)
@example(family="partition", a=12, b=12)
@example(family="mn", a=10**6, b=10**6)
@example(family="mn", a=70, b=68)
def test_build_pda_never_raises(workdir, family, a, b):
    flags = ["--kprime", str(a), "--t", str(b)] if family == "mn" else ["--m", str(a), "--q", str(b)]
    run_cli(workdir, ["build-pda", "--family", family, *flags])
