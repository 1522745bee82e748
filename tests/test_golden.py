"""The golden outputs as a gate: every CLI output of ``golden_outputs.py``
is regenerated and checked against the committed manifest.

The digests hold only where numpy, its BLAS and the platform match the
manifest's header, so elsewhere that test is skipped with the reason.  The
verdicts, summary counts and exit codes hold everywhere.  A change that
moves outputs on purpose rewrites both records with
``golden_outputs.py --write-manifest``.
"""

import json

import pytest

import golden_outputs


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    golden_outputs.write_outputs(str(outdir))
    return str(outdir)


def test_digests_match_the_manifest(golden_dir):
    taken_on, recorded = golden_outputs.read_manifest()
    here = golden_outputs.environment()
    if taken_on != here:
        reason = f"manifest taken on {taken_on}, this run on {here}: digests not compared"
        print(reason)
        pytest.skip(reason)
    got = golden_outputs.digests(golden_dir)
    changed = sorted(name for name in recorded.keys() | got.keys()
                     if recorded.get(name) != got.get(name))
    assert not changed, f"golden outputs differ from tests/golden.sha256: {changed}"


def test_verdicts_counts_and_exit_codes_match(golden_dir):
    with open(golden_outputs.VERDICTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = golden_outputs.portable_fields(golden_dir)
    changed = sorted(
        f"{name}: {field}"
        for name in expected.keys() | got.keys()
        for field in expected.get(name, {}).keys() | got.get(name, {}).keys()
        if expected.get(name, {}).get(field) != got.get(name, {}).get(field)
    )
    assert not changed, f"differ from tests/golden_verdicts.json: {changed}"
