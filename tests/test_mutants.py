"""The mutation tool's list of known equivalent mutants stays current."""

import os

import mutants


def test_every_equivalent_key_names_a_site():
    """Each EQUIVALENT key is the key, occurrence number included, of a
    mutation site of its function in the current source, enumerated by the
    tool's own site walk; no mutant is run."""
    keys = list(mutants.EQUIVALENT)
    wanted = mutants.wanted_of(key.split(": ", 1)[0] for key in keys)
    _, sites = mutants.collect_sites(os.path.join(mutants.ROOT, "src"), wanted)
    assert sorted(set(keys) - {site.key for site in sites}) == []


def test_progress_line_files_an_equivalent_survivor_apart():
    """A listed survivor prints `equivalent:` as it runs, not `survived:`; a
    failed or timed-out run is killed whether listed or not."""
    listed = next(iter(mutants.EQUIVALENT))
    assert mutants.verdict(0, listed) == "equivalent"
    assert mutants.verdict(0, "transform.check_c5: l -> l + 1") == "survived"
    for status in (1, 2, None):
        assert mutants.verdict(status, listed) == "killed"
        assert mutants.verdict(status, "transform.check_c5: l -> l + 1") == "killed"
